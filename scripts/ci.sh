#!/usr/bin/env bash
# One-shot CI driver: every gate the repo has, in dependency order, with
# a pass/fail summary table at the end. Exit code is non-zero when any
# gate fails (skipped gates do not fail the run).
#
#   scripts/ci.sh            # tier-1 tests, fault suite, flake repeat
#                            # of the threaded serve/debugz tests, serve
#                            # smoke, flightrec crash-dump smoke, debugz
#                            # probe, deadlock-detector probe,
#                            # chaos-injection probe, sharded-cluster
#                            # drain handoff,
#                            # lint, strict build, ASan+UBSan
#   scripts/ci.sh debugz     # just the named gate(s) — build runs first
#                            # automatically unless it was named
#   LCREC_CI_PERF=1 scripts/ci.sh   # additionally run the perf gate
#
# Individual gates reuse their own scratch build trees (build-strict/,
# build-asan/), so repeat runs only pay incremental rebuilds.

set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build"
jobs="$(nproc 2>/dev/null || echo 4)"

declare -a gate_names=()
declare -a gate_results=()
declare -a gate_times=()

run_gate() {
  local name="$1"
  shift
  local start end rc
  echo
  echo "=== gate: ${name} ==="
  start=$(date +%s)
  "$@"
  rc=$?
  end=$(date +%s)
  gate_names+=("${name}")
  gate_times+=("$((end - start))s")
  if [[ ${rc} -eq 0 ]]; then
    gate_results+=("PASS")
  else
    gate_results+=("FAIL")
  fi
  return ${rc}
}

overall=0

gate_build() {
  cmake -S "${repo_root}" -B "${build_dir}" >/dev/null &&
    cmake --build "${build_dir}" -j "${jobs}"
}
gate_tests() {
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    -E "check_warnings|check_sanitize_asan|check_sanitize_tsan|perf_regress"
}
gate_fault() {
  # Crash-safety suite: checkpoint fuzzing, fault-injected atomic writes,
  # resume equivalence, health rollback. Default-on (no env gate) — these
  # are plain unit tests, just grouped under their own CTest label.
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" -L fault
}
gate_flake() {
  # Determinism under load: the threaded serving, batching and debugz
  # suites, each test repeated until it fails (at most 5 passes) while
  # the whole selection runs at -j$(nproc). A test that passes alone but
  # fails here depends on timing or on a racy snapshot.
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
    --repeat until-fail:5 \
    -R "^(ServeTest|ServeObsTest|ResilienceTest|BatchGenTest|DebugzTest)\."
}
gate_lint() {
  "${build_dir}/tools/lcrec_lint" --root "${repo_root}" &&
    "${build_dir}/tools/lcrec_lint" --root "${repo_root}" --selftest
}
gate_warnings() {
  LCREC_STRICT=1 "${repo_root}/scripts/check_warnings.sh"
}
gate_asan() {
  LCREC_SANITIZE=1 "${repo_root}/scripts/check_sanitize.sh" asan
}
gate_tsan() {
  LCREC_SANITIZE=1 "${repo_root}/scripts/check_sanitize.sh" tsan
}
gate_perf() {
  LCREC_PERF=1 "${repo_root}/scripts/perf_regress.sh" \
    "${build_dir}/bench/bench_perfgate"
}
gate_serve() {
  # Online-serving smoke: a small load-test replay at low QPS must finish
  # with zero shed requests and zero errors (bench_serve exits non-zero
  # otherwise). The record lands in the build tree, not the checkout.
  "${build_dir}/bench/bench_serve" --smoke \
    --out="${build_dir}/bench_serve_smoke.json"
}

gate_debugz() {
  # Live-introspection smoke: the probe embeds a serve::Server with an
  # ephemeral debug port, scrapes all eight debugz endpoints over HTTP
  # under client load (Prometheus conformance via the shared checker,
  # JSON/JSONL shape, llm.* frames in a /profilez capture), then forces
  # a ckpt health trip and requires /healthz to flip to 503 naming the
  # subsystem and step. Self-checking: exits non-zero on any violation.
  "${build_dir}/tools/debugz_probe"
}

gate_deadlock() {
  # Lock-discipline gate, end to end: a seeded lock-order inversion must
  # be detected on the first cycle-creating acquisition (one thread, no
  # actual deadlock, no timeout) with a report naming both mutexes and
  # both acquisition paths; fatal mode must abort the process with the
  # same report on stderr; and a correctly-ordered multi-threaded run
  # must finish with zero findings.
  local probe="${build_dir}/tools/deadlock_probe"
  local out="${build_dir}/deadlock_probe.log"
  if ! "${probe}" --cycle >"${out}" 2>&1; then
    echo "deadlock: --cycle exited non-zero (report mode must not kill" \
         "the process)"
    cat "${out}"
    return 1
  fi
  local want
  for want in "lock-order cycle" "probe.a" "probe.b" \
              "this acquisition" "conflicting edge"; do
    if ! grep -qF "${want}" "${out}"; then
      echo "deadlock: cycle report is missing '${want}'"
      cat "${out}"
      return 1
    fi
  done
  if "${probe}" --cycle-fatal >/dev/null 2>"${out}"; then
    echo "deadlock: --cycle-fatal unexpectedly exited 0"
    return 1
  fi
  if ! grep -qF "lock-order cycle" "${out}"; then
    echo "deadlock: fatal-mode stderr lacks the cycle report"
    cat "${out}"
    return 1
  fi
  if ! "${probe}" >"${out}" 2>&1 || ! grep -qF "OK (0 findings)" "${out}"; then
    echo "deadlock: clean correctly-ordered run reported findings"
    cat "${out}"
    return 1
  fi
  echo "deadlock: inversion detected in report and fatal modes; clean" \
       "run 0 findings"
}

gate_chaos() {
  # Resilient-serving gate: the probe embeds a serve::Server with the
  # degradation ladder on and drives deadline-bearing load while the
  # chaos injector (armed here through the real LCREC_CHAOS env grammar)
  # fires decode delays, decode failures, and queue pressure. The probe
  # itself asserts the contract — no crash, every request resolves kOk
  # from some ladder tier, latency stays inside the degrade bound, every
  # degraded response is labeled with its tier, and the terminal-state
  # counters sum — and a --healthy control run must show zero
  # degradation with chaos disarmed.
  LCREC_CHAOS="decode:delay:0.25:25,decode:fail:0.25,queue:full:0.1" \
  LCREC_CHAOS_SEED=42 \
    "${build_dir}/tools/chaos_probe" || return 1
  LCREC_CHAOS= "${build_dir}/tools/chaos_probe" --healthy
}

gate_net() {
  # Sharded-cluster gate (ISSUE 10): a router process fronting two real
  # worker processes takes an open-loop socket load burst while one
  # worker is SIGTERMed mid-load. The drain handoff contract: the killed
  # worker finishes its in-flight requests and exits 0 ("drained
  # clean"), the load generator sees zero failed requests
  # (bench_serve --net-target exits non-zero otherwise), and the
  # router's debugz /statusz names both shards with the right health —
  # the killed shard down, the survivor up.
  local dir="${build_dir}/net_gate"
  rm -rf "${dir}" && mkdir -p "${dir}"
  local worker_a worker_b router_pid bench_pid
  "${build_dir}/tools/lcrec_worker" --port-file="${dir}/wa.port" \
    >"${dir}/worker_a.log" 2>&1 &
  worker_a=$!
  "${build_dir}/tools/lcrec_worker" --port-file="${dir}/wb.port" \
    >"${dir}/worker_b.log" 2>&1 &
  worker_b=$!
  local i
  for i in $(seq 1 100); do
    [[ -s "${dir}/wa.port" && -s "${dir}/wb.port" ]] && break
    sleep 0.1
  done
  if [[ ! -s "${dir}/wa.port" || ! -s "${dir}/wb.port" ]]; then
    echo "net: workers did not write port files"
    kill "${worker_a}" "${worker_b}" 2>/dev/null
    return 1
  fi
  local pa pb
  pa="$(cat "${dir}/wa.port")"
  pb="$(cat "${dir}/wb.port")"
  "${build_dir}/tools/lcrec_router" \
    --workers="127.0.0.1:${pa},127.0.0.1:${pb}" \
    --port-file="${dir}/router.port" \
    --debug-port=0 --debug-port-file="${dir}/debug.port" \
    >"${dir}/router.log" 2>&1 &
  router_pid=$!
  for i in $(seq 1 100); do
    [[ -s "${dir}/router.port" && -s "${dir}/debug.port" ]] && break
    sleep 0.1
  done
  if [[ ! -s "${dir}/router.port" || ! -s "${dir}/debug.port" ]]; then
    echo "net: router did not write its port files"
    kill "${router_pid}" "${worker_a}" "${worker_b}" 2>/dev/null
    return 1
  fi
  local rport dport
  rport="$(cat "${dir}/router.port")"
  dport="$(cat "${dir}/debug.port")"

  "${build_dir}/bench/bench_serve" --net-target="127.0.0.1:${rport}" \
    --requests=240 --qps=400 --concurrency=8 \
    >"${dir}/bench.log" 2>&1 &
  bench_pid=$!
  sleep 0.3
  kill -TERM "${worker_a}"
  local worker_rc=0 bench_rc=0
  wait "${worker_a}" || worker_rc=$?
  wait "${bench_pid}" || bench_rc=$?
  local fail=0
  if [[ ${worker_rc} -ne 0 ]] ||
     ! grep -q "drained clean" "${dir}/worker_a.log"; then
    echo "net: killed worker did not drain clean (rc ${worker_rc})"
    cat "${dir}/worker_a.log"
    fail=1
  fi
  if [[ ${bench_rc} -ne 0 ]]; then
    echo "net: requests failed across the drain handoff (rc ${bench_rc})"
    cat "${dir}/bench.log"
    fail=1
  fi

  # Per-shard health over the router's debugz (bash /dev/tcp: no curl
  # dependency; the server closes after the response, so cat sees EOF).
  local statusz=""
  if exec 3<>"/dev/tcp/127.0.0.1/${dport}" 2>/dev/null; then
    printf 'GET /statusz HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
    statusz="$(cat <&3)"
    exec 3<&- 3>&-
  fi
  if ! grep -q "shard 0 127.0.0.1:${pa} down" <<<"${statusz}"; then
    echo "net: /statusz does not show the killed shard down"
    grep "shard" <<<"${statusz}" || printf '%s\n' "${statusz}" | head -20
    fail=1
  fi
  if ! grep -q "shard 1 127.0.0.1:${pb} up" <<<"${statusz}"; then
    echo "net: /statusz does not show the surviving shard up"
    grep "shard" <<<"${statusz}" || printf '%s\n' "${statusz}" | head -20
    fail=1
  fi

  kill -TERM "${router_pid}" "${worker_b}" 2>/dev/null
  local router_rc=0 wb_rc=0
  wait "${router_pid}" || router_rc=$?
  wait "${worker_b}" || wb_rc=$?
  if [[ ${router_rc} -ne 0 || ${wb_rc} -ne 0 ]]; then
    echo "net: clean shutdown failed (router rc ${router_rc}, worker B" \
         "rc ${wb_rc})"
    fail=1
  fi
  if [[ ${fail} -eq 0 ]]; then
    echo "net: drain handoff clean (worker drained, zero failed requests," \
         "per-shard health correct)"
  fi
  return ${fail}
}

gate_flightrec() {
  # Flight-recorder smoke: a forced LCREC_CHECK failure in a child
  # process must leave a parseable black-box dump on stderr containing
  # the shed events recorded just before the crash.
  local probe="${build_dir}/tools/flightrec_probe"
  local log="${build_dir}/flightrec_probe.log"
  if "${probe}" --crash >/dev/null 2>"${log}"; then
    echo "flightrec: probe --crash unexpectedly exited 0"
    return 1
  fi
  if ! grep -q '^=== flight recorder dump (' "${log}"; then
    echo "flightrec: dump start marker missing from stderr"
    return 1
  fi
  if ! grep -q '^=== end flight recorder dump ===$' "${log}"; then
    echo "flightrec: dump end marker missing from stderr"
    return 1
  fi
  local dump sheds malformed
  dump="$(sed -n '/^=== flight recorder dump (/,/^=== end flight recorder dump ===$/p' \
    "${log}" | sed '1d;$d')"
  if [[ -z "${dump}" ]]; then
    echo "flightrec: dump is empty"
    return 1
  fi
  sheds="$(printf '%s\n' "${dump}" | grep -c '"detail":"shed_queue_full"')"
  if [[ "${sheds}" -lt 5 ]]; then
    echo "flightrec: expected >= 5 shed_queue_full events, got ${sheds}"
    return 1
  fi
  # Every dump line must be one JSON object with the documented fields.
  malformed="$(printf '%s\n' "${dump}" | grep -vcE \
    '^\{"ts_us":[0-9.e+-]+,"tid":[0-9]+,"kind":"[a-z_]+","detail":"[^"]*","a":-?[0-9]+,"b":-?[0-9]+\}$')"
  if [[ "${malformed}" -ne 0 ]]; then
    echo "flightrec: ${malformed} malformed JSONL line(s) in dump"
    printf '%s\n' "${dump}" | head -5
    return 1
  fi
  echo "flightrec: dump OK ($(printf '%s\n' "${dump}" | wc -l) events," \
    "${sheds} sheds)"
}

# Gate selection: with positional args, run only the named gates (the
# build gate is prepended automatically — everything needs binaries).
# Unknown names fail fast so a typo can't silently skip a gate.
known_gates="build tier1_tests fault flake serve_smoke flightrec debugz \
deadlock chaos net lcrec_lint check_warnings asan_ubsan tsan perf_regress"
selected=("$@")
if [[ ${#selected[@]} -gt 0 ]]; then
  for g in "${selected[@]}"; do
    if ! grep -qw "${g}" <<<"${known_gates}"; then
      echo "ci.sh: unknown gate '${g}' (known: ${known_gates})" >&2
      exit 2
    fi
  done
  if ! grep -qw "build" <<<"${selected[*]}"; then
    selected=("build" "${selected[@]}")
  fi
fi

wants() {
  # True when gate $1 should run this invocation.
  [[ ${#selected[@]} -eq 0 ]] && return 0
  grep -qw "$1" <<<"${selected[*]}"
}

wants build          && { run_gate "build"          gate_build     || overall=1; }
wants tier1_tests    && { run_gate "tier1_tests"    gate_tests     || overall=1; }
wants fault          && { run_gate "fault"          gate_fault     || overall=1; }
wants flake          && { run_gate "flake"          gate_flake     || overall=1; }
wants serve_smoke    && { run_gate "serve_smoke"    gate_serve     || overall=1; }
wants flightrec      && { run_gate "flightrec"      gate_flightrec || overall=1; }
wants debugz         && { run_gate "debugz"         gate_debugz    || overall=1; }
wants deadlock       && { run_gate "deadlock"       gate_deadlock  || overall=1; }
wants chaos          && { run_gate "chaos"          gate_chaos     || overall=1; }
wants net            && { run_gate "net"            gate_net       || overall=1; }
wants lcrec_lint     && { run_gate "lcrec_lint"     gate_lint      || overall=1; }
wants check_warnings && { run_gate "check_warnings" gate_warnings  || overall=1; }
wants asan_ubsan     && { run_gate "asan_ubsan"     gate_asan      || overall=1; }
wants tsan           && { run_gate "tsan"           gate_tsan      || overall=1; }
# perf_regress is opt-in: env flag for full runs, or named explicitly.
if [[ "${LCREC_CI_PERF:-0}" == "1" && ${#selected[@]} -eq 0 ]] ||
   { [[ ${#selected[@]} -gt 0 ]] && grep -qw perf_regress <<<"${selected[*]}"; }; then
  run_gate "perf_regress" gate_perf || overall=1
fi

echo
echo "=== ci summary ==="
printf "%-16s %-6s %s\n" "gate" "result" "time"
for i in "${!gate_names[@]}"; do
  printf "%-16s %-6s %s\n" "${gate_names[$i]}" "${gate_results[$i]}" \
    "${gate_times[$i]}"
done
if [[ ${overall} -eq 0 ]]; then
  echo "ci: ALL GATES GREEN"
else
  echo "ci: FAILURES (see above)"
fi
exit ${overall}
