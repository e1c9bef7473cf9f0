#!/usr/bin/env bash
# Runs the installed `stdnet` console script end to end on the two-box chair
# and checks that repeating `train`, `deform` and `eval` writes the same bytes,
# and that `train` leaves only its checkpoint and curve, no temporary file.
# Usage: .github/scripts/cli_determinism_smoke.sh [WORKDIR]
set -euo pipefail
work=${1:-$(mktemp -d)}
mkdir -p "$work"
cd "$work"
stdnet fixtures two-box-chair --out fixtures --quiet
echo '{"iterations": 2, "eval_every": 1}' > config.json
for n in 1 2; do
    stdnet train fixtures --out "run$n" --config config.json --quiet
    test "$(ls -A "run$n")" = "$(printf 'checkpoint.stdn\ncurve.csv')"
done
cmp run1/checkpoint.stdn run2/checkpoint.stdn
cmp run1/curve.csv run2/curve.csv
box=$(ls fixtures/*.box.json | head -n 1)
for n in 1 2; do
    stdnet deform run1/checkpoint.stdn "$box" --subdivisions 1 --out "deform$n" --quiet
    stdnet eval run1/checkpoint.stdn fixtures --out "eval$n" --quiet
done
test "$(ls deform1/*.obj | wc -l)" -eq 3
for obj in deform1/*.obj; do
    cmp "$obj" "deform2/${obj#deform1/}"
done
cmp eval1/metrics.jsonl eval2/metrics.jsonl
echo "train, deform and eval outputs identical across two runs in $work"
