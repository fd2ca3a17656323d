#!/usr/bin/env bash
# Tier-1 gate plus the server smoke test (which also scrapes the
# Prometheus /metrics exposition and executes the live fact-update
# walkthrough of examples/incremental_walkthrough.md), the query-lane
# smoke (magic-sets point queries, answer-cache warm-up, update
# invalidation and the ekg_query_* series over loopback HTTP), the
# restart-recovery smoke (kill + restart on the same --store-dir;
# explanations must be served again without re-running the chase), the
# scale-harness smoke (tiny-N generate -> serve -> CDC replay ->
# identity gate, with the ekg_loadgen_* series asserted), the chase
# bench smoke (writes BENCH_chase.json: admission and observability
# overhead, incremental maintenance vs cold re-chase, query lane vs
# materialization, snapshot/restore vs cold chase; fails if
# incremental, query-lane or restored state ever diverges), the
# benchmark self-test (perfbench at tiny size: builds the benchmark,
# checks every metric is reported and every correctness check can
# fail; ~90 s), the fingerprint gate (every bundled app's full chase
# output must digest to its recorded value), and the documentation gate
# (doc-comment lint always; `dune build @doc` + HTML artifact when
# odoc is installed). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build
dune runtest
dune build @smoke
dune build @smoke-faults
dune build @smoke-query
dune build @smoke-recovery
dune build @smoke-scale
dune exec bench/main.exe -- chase-smoke
python3 perfbench/selftest.py

# fingerprint gate: each bundled app's full chase output (facts, ids,
# provenance, chase graph) must digest to the recorded value; an engine
# change may move time, never a byte
while read -r app expected; do
  fp="$(dune exec bin/profile.exe -- "$app" --fingerprint | sed -n 's/^fingerprint: //p')"
  if [ "$fp" != "$expected" ]; then
    echo "ci: $app fingerprint '$fp' differs from the recorded $expected" >&2
    exit 1
  fi
  echo "ci: $app fingerprint ok ($fp)"
done <<'APPS'
company-control 06d605798e09d92f2dec9ac0bb5f700b
stress-test 8d3feae6656b709cf8f620b55fa5c098
close-link bea5782cff97f2fb012a6ad6f8633ffa
golden-power f038631ca1d42d5a1d551ae64f670477
APPS

# documentation: lint is unconditional; rendering needs odoc, which
# not every CI image carries — skip rendering gracefully when absent
bash scripts/doc_lint.sh
if command -v odoc >/dev/null 2>&1; then
  warnings="$(mktemp)"
  dune build @doc 2> >(tee "$warnings" >&2)
  if [ -s "$warnings" ]; then
    echo "ci: dune build @doc emitted warnings" >&2
    rm -f "$warnings"
    exit 1
  fi
  rm -f "$warnings"
  # publishable artifact (CI systems upload this directory)
  rm -rf _build/odoc-artifact
  cp -r _build/default/_doc/_html _build/odoc-artifact
  echo "ci: odoc HTML artifact at _build/odoc-artifact"
else
  echo "ci: odoc not installed; skipped @doc rendering (doc lint still enforced)"
fi

echo "ci: all green (build + tests + smoke/metrics + fault drills + restart recovery + scale replay + chase bench + benchmark self-test + fingerprints + docs)"
