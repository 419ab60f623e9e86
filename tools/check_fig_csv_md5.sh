#!/usr/bin/env bash
# Audit: the paper-figure CSVs and the bench_fault campaign CSVs are
# bit-frozen.
#
# Every kernel/selection change must leave fig 7/8/9/11 and bench_fault
# byte-identical -- the selection pipeline promises bit-identical results
# across refactors, thread counts and the branch-and-bound argmax (it may
# only skip work, never change arithmetic). This regenerates the CSVs at
# several thread counts and checks them against the committed md5
# manifest. If a change is *supposed* to alter them (a modelling change,
# not a kernel change), regenerate the manifest in the same commit and
# say so:
#   cd <fresh dir> && for b in fig7 fig8 fig9 fig11 fault; do
#     <build>/bench/bench_$b --threads 1; done
#   md5sum *.csv | sort -k2 > tools/fig_csv_md5.manifest
#
# Usage: tools/check_fig_csv_md5.sh [build_dir] [threads...]
#   build_dir defaults to ./build, threads default to "1 2 7".
set -euo pipefail
cd "$(dirname "$0")/.."

build_dir="${1:-build}"
shift $(( $# > 0 ? 1 : 0 ))
threads=("$@")
[ ${#threads[@]} -gt 0 ] || threads=(1 2 7)

manifest="$(pwd)/tools/fig_csv_md5.manifest"
[ -f "${manifest}" ] || { echo "missing ${manifest}" >&2; exit 1; }

benches=(fig7 fig8 fig9 fig11 fault)
for bench in "${benches[@]}"; do
  bin="${build_dir}/bench/bench_${bench}"
  [ -x "${bin}" ] || { echo "missing ${bin} (build the bench targets first)" >&2; exit 1; }
done
# Resolve the binaries before we cd into scratch dirs.
build_abs="$(cd "${build_dir}" && pwd)"

scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

status=0
for t in "${threads[@]}"; do
  dir="${scratch}/t${t}"
  mkdir -p "${dir}"
  if ( cd "${dir}"
       for bench in "${benches[@]}"; do
         "${build_abs}/bench/bench_${bench}" --threads "${t}" > /dev/null
       done
       md5sum -c "${manifest}" > /dev/null ); then
    echo "OK: fig 7/8/9/11 and bench_fault CSVs match the manifest at --threads ${t}"
  else
    echo "FAIL: frozen CSVs diverge from tools/fig_csv_md5.manifest at --threads ${t}:"
    ( cd "${dir}" && md5sum -c "${manifest}" 2>&1 | grep -v ': OK$' ) || true
    status=1
  fi
done
exit "${status}"
