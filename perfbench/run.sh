#!/usr/bin/env bash
# Build vekt's benchmark, the daemon it drives and the paper-figure
# harness its smoke check compares against, then run it:
#
#   bash perfbench/run.sh --workload suite-warm --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh smoke
#
# Run from the root of a vekt checkout.  Build output goes to stderr, so
# the last line of stdout is the benchmark's result object.
set -euo pipefail
dune build --root . ./perfbench/perfbench.exe ./bin/vektc.exe ./bench/main.exe 1>&2
if commit=$(git rev-parse HEAD 2>/dev/null); then
  export VEKT_COMMIT="$commit"
else
  export VEKT_COMMIT="source-md5:$(find lib bin -name '*.ml' | LC_ALL=C sort | xargs cat | md5sum | cut -d' ' -f1)"
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
