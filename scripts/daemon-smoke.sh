#!/usr/bin/env bash
# Daemon smoke scenarios over loopback TCP: each starts the release-built
# `oef-serviced`, drives it with `oef-servicectl` (and curl against the
# metrics listener), and exits non-zero on the first failed check.
#
#   bash scripts/daemon-smoke.sh <scenario>
#
# Scenarios: service, sharded, metrics, trace, attrib, crash-recovery.
# Run it from the root of the repository after
# `cargo build --release --workspace`.  Each scenario binds its own fixed
# ports (7441-7447, 9445-9447), so scenarios can run one after another.
#
# No `pipefail`: `grep -q` exits at its first match, and the curl feeding it
# may then die of SIGPIPE; the pipeline's status is grep's.
set -eu

DAEMON_PID=""

# A scenario that fails midway must not leave its daemon running.
cleanup() {
    if [ -n "$DAEMON_PID" ] && kill -0 "$DAEMON_PID" 2>/dev/null; then
        kill -9 "$DAEMON_PID" 2>/dev/null || true
    fi
}
trap cleanup EXIT

# Polls `status` until the daemon at $1 answers, for up to 5 s.
wait_ready() {
    for _ in $(seq 1 50); do
        if ./target/release/oef-servicectl status "$1" 2>/dev/null; then
            return 0
        fi
        sleep 0.1
    done
    echo "daemon at $1 never answered status" >&2
    return 1
}

# Daemon + client: the scripted join/tick/leave session, then shutdown.
service() {
    ./target/release/oef-serviced --addr 127.0.0.1:7441 &
    DAEMON_PID=$!
    wait_ready 127.0.0.1:7441
    ./target/release/oef-servicectl smoke 127.0.0.1:7441
    wait "$DAEMON_PID"
}

# Two shards: cross-shard Status aggregation, migration, snapshot/restore.
sharded() {
    ./target/release/oef-serviced --addr 127.0.0.1:7442 --shards 2 &
    DAEMON_PID=$!
    wait_ready 127.0.0.1:7442
    ./target/release/oef-servicectl smoke-shard 127.0.0.1:7442
    wait "$DAEMON_PID"
}

# --metrics-addr: curl /metrics + /healthz, strict exposition check.
metrics() {
    ./target/release/oef-serviced --addr 127.0.0.1:7445 --shards 2 \
        --metrics-addr 127.0.0.1:9445 &
    DAEMON_PID=$!
    wait_ready 127.0.0.1:7445
    # Drive a round so the per-shard histograms and fairness series
    # have data, then validate the endpoint three ways: raw curl of
    # both paths, the strict in-repo exposition parser, and a grep for
    # the per-shard histogram series.
    ./target/release/oef-servicectl smoke-crash-prepare 127.0.0.1:7445 "$(mktemp)"
    curl -fsS http://127.0.0.1:9445/healthz | grep -q '"status":"ok"'
    curl -fsS http://127.0.0.1:9445/healthz | grep -q '"shards":2'
    curl -fsS http://127.0.0.1:9445/metrics | grep -q 'oef_solve_duration_seconds_bucket{shard="1",policy="oef-noncooperative",program="non-cooperative",le="+Inf"}'
    curl -fsS http://127.0.0.1:9445/metrics | grep -q '^oef_tenant_allocation{'
    curl -fsS http://127.0.0.1:9445/metrics | grep -q '^oef_fairness_sample_age_seconds{shard="0"}'
    curl -fsS http://127.0.0.1:9445/metrics | grep -q '^oef_eta_pivots_total{shard="0"}'
    ./target/release/oef-servicectl check-metrics 127.0.0.1:9445
    ./target/release/oef-servicectl shutdown 127.0.0.1:7445
    wait "$DAEMON_PID"
}

# --trace-sample 1: /traces, exemplars, ctl trace.
trace() {
    ./target/release/oef-serviced --addr 127.0.0.1:7446 --shards 2 \
        --metrics-addr 127.0.0.1:9446 --trace-sample 1 &
    DAEMON_PID=$!
    wait_ready 127.0.0.1:7446
    # Drive traced commands, then assert the whole trace surface: the
    # slow-trace ring is non-empty, the latency histograms carry
    # OpenMetrics exemplars, the CLI renders span trees, and the
    # strict parser (check-metrics) accepts the exemplar'd exposition.
    ./target/release/oef-servicectl smoke-crash-prepare 127.0.0.1:7446 "$(mktemp)"
    curl -fsS http://127.0.0.1:9446/traces | grep -q '"slowest":\[{"trace_id":"'
    curl -fsS http://127.0.0.1:9446/metrics | grep -q '# {trace_id="'
    ./target/release/oef-servicectl trace 127.0.0.1:9446 --slowest 3 | grep -q '^trace '
    ./target/release/oef-servicectl check-metrics 127.0.0.1:9446
    ./target/release/oef-servicectl shutdown 127.0.0.1:7446
    wait "$DAEMON_PID"
}

# /attrib endpoint, bounded cost family, ctl attrib explainer.
attrib() {
    ./target/release/oef-serviced --addr 127.0.0.1:7447 --shards 2 \
        --metrics-addr 127.0.0.1:9447 &
    DAEMON_PID=$!
    wait_ready 127.0.0.1:7447
    # Drive some solved rounds, then assert the whole attribution
    # surface: /attrib serves the cumulative ledger with the phase
    # profile attached, /metrics carries the bounded counter family,
    # the CLI renders the cost explainer, and the strict parser
    # (check-metrics) still accepts the exposition.
    ./target/release/oef-servicectl smoke-crash-prepare 127.0.0.1:7447 "$(mktemp)"
    curl -fsS http://127.0.0.1:9447/attrib | grep -q '"solves":'
    curl -fsS http://127.0.0.1:9447/attrib | grep -q '"tenants":\[{"tenant":'
    curl -fsS http://127.0.0.1:9447/attrib | grep -q '"profile":\[{"phase":'
    curl -fsS http://127.0.0.1:9447/metrics | grep -q '^oef_tenant_solve_cost{tenant="'
    ./target/release/oef-servicectl attrib 127.0.0.1:9447 | grep -q 'work_units='
    ./target/release/oef-servicectl attrib 127.0.0.1:9447 --top 3 | grep -q 'attributed solve'
    ./target/release/oef-servicectl check-metrics 127.0.0.1:9447
    ./target/release/oef-servicectl shutdown 127.0.0.1:7447
    wait "$DAEMON_PID"
}

# Journal + kill -9 + recover + verify over TCP.
crash_recovery() {
    JDIR=$(mktemp -d)
    RECORD=$(mktemp)
    ./target/release/oef-serviced --addr 127.0.0.1:7443 --shards 2 \
        --journal-dir "$JDIR" --fsync-every 1 &
    DAEMON_PID=$!
    wait_ready 127.0.0.1:7443
    ./target/release/oef-servicectl smoke-crash-prepare 127.0.0.1:7443 "$RECORD"
    kill -9 "$DAEMON_PID"
    wait "$DAEMON_PID" || true
    # Recover on a fresh port: no --shards / config flags — the
    # checkpoint plus journal tail are authoritative.
    ./target/release/oef-serviced --addr 127.0.0.1:7444 --journal-dir "$JDIR" &
    DAEMON_PID=$!
    wait_ready 127.0.0.1:7444
    ./target/release/oef-servicectl smoke-crash-verify 127.0.0.1:7444 "$RECORD"
    ./target/release/oef-servicectl shutdown 127.0.0.1:7444
    wait "$DAEMON_PID"
}

case "${1:-}" in
    service | sharded | metrics | trace | attrib) "$1" ;;
    crash-recovery) crash_recovery ;;
    *)
        echo "usage: $0 <service|sharded|metrics|trace|attrib|crash-recovery>" >&2
        exit 2
        ;;
esac
