#!/usr/bin/env sh
# Tier-1 gate: formatting, vet, build, and the full test suite under the
# race detector. Run from the repository root before sending changes.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== neptune-vet =="
# NEPTUNE-specific invariants (pool ownership, hot-path purity, COW
# discipline, callback-under-lock, error discards); see internal/lint.
go run ./cmd/neptune-vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== race smoke (-race -cpu 2) =="
# The keyed parallel relay, crash recovery, membership eviction and the
# headline acceptance tests under the race detector at GOMAXPROCS=2:
# the engine's instances only run truly concurrently with more than one
# P, so this is where data races between them would surface. Every name
# must match a listed test, so a stale pattern fails instead of passing
# silently on zero tests.
# race_smoke <package> <name>...: check each name against `go test
# -list`, then run the matching tests.
race_smoke() {
    pkg=$1
    shift
    listed=$(go test -list '.*' "$pkg")
    pattern=
    for name in "$@"; do
        if ! printf '%s\n' "$listed" | grep -q "^$name"; then
            echo "race smoke: no test in $pkg matches $name" >&2
            exit 1
        fi
        pattern="${pattern:+$pattern|}$name"
    done
    go test -race -cpu 2 -count=1 -run "$pattern" "$pkg"
}
race_smoke ./internal/core TestKeyedParallel 'TestCrashRecoveryExactlyOnce$' \
    TestMembershipPartitionEvictRejoinExactlyOnce \
    TestTwoStageExactlyOnceInOrder TestThreeStageRelayForwarding
race_smoke ./internal/transport TestGatherMidBatchShortWriteReleasesOnce \
    TestSendOwnedReleaseAfterDelivery TestResilientBlockPolicyBlocksAtLimit \
    TestResilientAckDuringReplayDefersRelease

echo "== fuzz smoke =="
# Short seeded fuzzing of the wire decoders and the descriptor parser:
# enough to catch regressions in the corpus and obvious panics, cheap
# enough for every run.
go test -run '^$' -fuzz 'FuzzDecodeFrame' -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz 'FuzzPacketCodecRoundTrip' -fuzztime 10s ./internal/packet
go test -run '^$' -fuzz 'FuzzSelectiveDecode' -fuzztime 10s ./internal/compression
go test -run '^$' -fuzz 'FuzzDescriptorLoad' -fuzztime 10s ./internal/graph
go test -run '^$' -fuzz 'FuzzDecodeControl' -fuzztime 10s ./internal/control

echo "== chaos soak smoke (pinned seeds) =="
# The pinned regression seeds of the randomized chaos soak (DESIGN §15):
# one deterministic round per scenario, invariant-checked end to end.
# cmd/neptune-soak runs the randomized long haul; this slice gates PRs.
go test -run 'TestSoakSeeds' -count=1 ./internal/soak

echo "== membership churn soak =="
# Seeded partition/heal churn over a simulated cluster (deterministic
# fabric + fake clock): every round must re-converge to full
# reachability. Run un-short so all six rounds execute.
go test -race -run 'TestMembershipChurnSoak' -count=1 ./internal/membership

echo "== QoS acceptance (10ms target) =="
# The adaptive QoS runtime's closed loop (DESIGN §16): a job with
# deliberately latency-hostile static knobs must be retuned until a
# trafficked link's smoothed p99 sojourn meets a 10 ms target, the
# fusion lifecycle must demonstrably remove the buffer hop, and
# exactly-once must survive an engine kill while a link is fused.
go test -race -count=1 \
    -run 'TestQoSLatencyTargetAcceptance|TestQoSChainsQuietLinkThenUnchains|TestQoSChainSurvivesCrashExactlyOnce' \
    ./internal/core

echo "== bench smoke =="
# A fixed 100 iterations per benchmark: catches benches that crash, hang,
# or fail their internal quiesce checks, without measuring anything.
go test -run '^$' -bench . -benchtime 100x ./internal/granules ./internal/core
go test -run '^$' -bench 'BenchmarkHeadlineSingleNode' -benchtime 100x .

echo "All checks passed."
