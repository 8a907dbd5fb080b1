#!/usr/bin/env bash
# Compare the CLI artifacts of two source trees byte for byte.
#
#   scripts/byte_identity.sh BASE_DIR CHANGED_DIR WORK_DIR
#
# BASE_DIR and CHANGED_DIR are checkouts of the repository (for example the
# parent commit, unpacked with `git archive`, and the working tree). Each
# side runs the same command lines with its own src/ on PYTHONPATH, in
# WORK_DIR/base and WORK_DIR/changed, and the two directories are handed to
# scripts/solver_agreement.py. The command lines are those of perfbench's
# `reference` and `large_grid` workloads: `verify` with nothing to read
# (it solves in process), `solve`, `verify` of the solve artifacts,
# `simulate` with seeds 1 and 7 under every named policy and under the
# solved policy.csv, `simulate` with a seed of more than 64 bits, and
# `sweep` of c_c. Legs at
# the solver's edges follow: `solve` and `verify` at the smallest grid
# (a_max=2), `solve` and `verify` at the large grid a_max=1000 (a
# 1,002,001-cell value.csv and PGM, which the real-grid writer takes in
# many blocks, and a verdict on Q grids and an action difference of that
# size), `solve` at gamma=0.999 (a_max=30, 8 sweeps and one policy
# evaluation) with `sweep` of gamma over 0.99,0.999, a `solve` cut off by
# --solver.max_iter=5, before the jump to policy iteration, and one cut off
# after it by --solver.tol=1e-15 --solver.max_iter=10 (both exit 3 with
# partial artifacts). Then `solve` and `verify` at the edges of the
# backup's per-action constants (a_max=30): gamma=0 (two sweeps),
# lambda_s=1 lambda_c=0 (success probabilities 1 and 0, the
# reversed ordering), lambda_s=0 lambda_c=1 and c_s=0 c_c=0; at the two
# link edges `simulate` (seed 1) also runs under the optimal, alternate and
# random_bernoulli:0.3 policies. At the large grid (a_max=300) `simulate`
# (seed 1, 1000 trajectories) runs at horizon 50 under the same three
# policies: the simulator's tables then stop at age max(s0) + horizon,
# below a_max. A leg on the policy reader's general path copies the
# reference solve with one policy.csv row rewritten as "+1" and " 0"
# cells, and runs `simulate --policy-file` and `verify` on it. A leg on
# the policy reader's array parser does the same with a row rewritten as
# "00", "01" and "-0" cells, which it reads through its 24-byte window,
# and again with one "2" cell, where both commands exit 2. A leg on
# the value reader's line path copies the reference solve with value.csv
# rows rewritten into text no write produces (row 3's cells cut to four
# decimals, a 1.5e1 cell in row 7, a "+" sign in row 9), which the array
# parser turns down, and runs `verify` on it. Three legs copy the
# reference solve into grids that fail the verdict, so the violation lists
# themselves are compared; `verify` exits 4 on each: value.csv with a "9"
# put in front of row 10's second cell (monotone, increasing_differences,
# delta_monotone and greedy violations), an all-sense policy.csv (greedy
# violations), and a policy.csv with row 0 and the alpha_b=6 column set to
# comm (greedy, single_crossing and threshold_monotone violations). A
# leg at the action draw's threshold edges, 0 and 2^53, runs `simulate`
# (seed 1, reference config) under random_bernoulli:0 and random_bernoulli:1.
# A leg at huge costs, c_s=c_c=1e140 (gamma=0.95, a_max=30), runs `solve`,
# `verify`, `simulate` (seed 1) under random_bernoulli:0.3 and `sweep` of
# c_s over 1e140,1e145: values of about 2e141 send every value.csv row
# through the "%.17g" format, and verify and sweep exit 0 there. A leg
# at gamma=1e-6 and no costs runs `solve` and `verify` at a_max 30 and
# 300: value.csv's row 0 is about 1e-6, below the 17-digit kernel's range,
# and the rows after it are in it, so the writer's first block mixes both.
# A leg where the policy evaluation's cut-off ends fail chains earliest
# runs `solve` and `verify` at a_max=300, lambda_s=0.3, lambda_c=0.5 and
# gamma=0.99: the cut-off derived from the value bound ends sense chains
# about 130 steps into their 300, where a fixed 1e-200 walks them to the
# corner. A leg at the slow-contraction config runs `solve` and `verify`
# at a_max=300 and gamma=0.999.
# The policy evaluation's anchor solve of m anchors, border k and band w
# keeps its border and band where many anchors have a narrow band (see
# solver._BORDERED_MIN_ANCHORS); elsewhere every column is border and
# the solve is the dense LU. Every a_max=30 leg is all border: m=47 at the
# reference parameters, m=30 and m=58 at the link edges, m=30 at the huge
# costs. So is a_max=2 (m=2), and so is the early cut-off leg, at m=487
# (k=137, w=261). The gamma=0 and gamma=1e-6 legs converge before any
# evaluation.
# The band is kept at large_grid (m, k, w) = (483, 41, 95), its horizon-50
# `simulate` legs included, at a_max=1000 (1612, 43, 97) and at a_max=300,
# gamma=0.999 (479, 45, 109).
# The top-level `--help` and each command's `--help`, at COLUMNS=80, are
# captured into help/, so a change to the CLI surface is a finding.
# Each command's exit code is appended to exit_codes.txt in the compared
# tree. Exits as solver_agreement.py does: 0 when every artifact and exit
# code is identical ("identical: N artifacts") or differs only as an
# algorithm swap may ("agree: N artifacts, M differ"), else 1, with one
# line per finding.
set -euo pipefail

if [ $# -ne 3 ]; then
    sed -n '2,/^set -euo pipefail$/{/^set/!p}' "$0" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
changed=$(cd "$2" && pwd)
work=$3
rm -rf "$work/base" "$work/changed"

run_side() {
    local src=$1/src dir=$2
    mkdir -p "$dir"
    (
        cd "$dir"
        aoi() {
            local rc=0
            PYTHONPATH="$src" OPENBLAS_NUM_THREADS=1 python3 -m aoi_isac "$@" \
                >/dev/null || rc=$?
            echo "$rc $*" >> exit_codes.txt
        }
        mkdir help
        for command in "" solve verify simulate sweep; do
            COLUMNS=80 PYTHONPATH="$src" python3 -m aoi_isac ${command:+"$command"} \
                --help > "help/${command:-aoi-isac}.txt"
        done
        model=(--model.lambda_s=0.6 --model.lambda_c=0.9 --model.c_s=0.2
               --model.c_c=0.1)
        for workload in reference large_grid; do
            case $workload in
                reference) size=(--model.a_max=30 --sim.n=10000)
                           sweep_values=0.05,0.1,0.2,0.4 ;;
                large_grid) size=(--model.a_max=300 --sim.n=1000)
                            sweep_values=0.1,0.4 ;;
            esac
            common=("${model[@]}" --model.gamma=0.95 "${size[@]}"
                    --sim.horizon=400 --sim.s0=1,1)
            aoi verify "${common[@]}" --output.directory="$workload/verify"
            aoi solve "${common[@]}" --output.directory="$workload/solve"
            aoi verify "${common[@]}" --output.directory="$workload/solve"
            for seed in 1 7; do
                for policy in optimal always_sense always_comm alternate random_bernoulli:0.3; do
                    aoi simulate --policy="$policy" "${common[@]}" --sim.seed="$seed" \
                        --output.directory="$workload/${policy/:/_}-$seed"
                done
                aoi simulate --policy-file="$workload/solve/policy.csv" "${common[@]}" \
                    --sim.seed="$seed" --output.directory="$workload/policy_file-$seed"
            done
            aoi simulate --policy=optimal "${common[@]}" --sim.seed=12345678901234567890 \
                --output.directory="$workload/optimal-12345678901234567890"
            aoi sweep --axis=c_c --values="$sweep_values" "${common[@]}" \
                --output.directory="$workload/sweep"
        done
        # the policy reader's general path: the reference solve with row 5
        # of policy.csv rewritten as "+1" and " 0" cells, which int() reads
        mkdir -p edges/signed_cells
        cp reference/solve/value.csv edges/signed_cells/
        sed '/^5,/{s/,1/,+1/g;s/,0/, 0/g}' reference/solve/policy.csv \
            > edges/signed_cells/policy.csv
        reference=("${model[@]}" --model.gamma=0.95 --model.a_max=30
                   --sim.n=10000 --sim.horizon=400 --sim.s0=1,1)
        aoi simulate --policy-file=edges/signed_cells/policy.csv "${reference[@]}" \
            --sim.seed=1 --output.directory=edges/signed_cells_simulate
        aoi verify "${reference[@]}" --output.directory=edges/signed_cells
        # the policy reader's array parser: row 5 rewritten as "01", "00"
        # and "-0" cells, then a copy whose last cell in row 5 is "2"
        mkdir -p edges/short_policy_cells edges/short_policy_cells_2
        cp reference/solve/value.csv edges/short_policy_cells/
        cp reference/solve/value.csv edges/short_policy_cells_2/
        sed -E '/^5,/{s/,1/,01/g;s/,0\b/,-0/g;s/,-0,/,00,/}' \
            reference/solve/policy.csv > edges/short_policy_cells/policy.csv
        sed '/^5,/s/,0$/,2/' reference/solve/policy.csv \
            > edges/short_policy_cells_2/policy.csv
        for leg in short_policy_cells short_policy_cells_2; do
            aoi simulate --policy-file="edges/$leg/policy.csv" "${reference[@]}" \
                --sim.seed=1 --output.directory="edges/${leg}_simulate"
            aoi verify "${reference[@]}" --output.directory="edges/$leg"
        done
        # the value reader's line path: value.csv rows in text that float()
        # reads but no write produces
        mkdir -p edges/rewritten_values
        cp reference/solve/policy.csv edges/rewritten_values/
        sed -E -e '/^3,/s/([0-9]+\.[0-9]{4})[0-9]*/\1/g' \
               -e '/^7,/s/^7,[^,]*/7,1.5e1/' -e '/^9,/s/,([0-9])/,+\1/' \
            reference/solve/value.csv > edges/rewritten_values/value.csv
        aoi verify "${reference[@]}" --output.directory=edges/rewritten_values
        # grids that fail the verdict: one value cell raised tenfold and
        # more, an all-sense policy, and a policy with comm in row 0 and in
        # the alpha_b=6 column
        mkdir -p edges/failing_value edges/failing_sense edges/failing_comm
        cp reference/solve/policy.csv edges/failing_value/
        sed -E '/^10,/s/^(10,[^,]*,)/\19/' reference/solve/value.csv \
            > edges/failing_value/value.csv
        cp reference/solve/value.csv edges/failing_sense/
        sed -E '/^[0-9]+,/s/,1/,0/g' reference/solve/policy.csv \
            > edges/failing_sense/policy.csv
        cp reference/solve/value.csv edges/failing_comm/
        sed -E -e '/^0,/s/,0/,1/g' -e '/^[0-9]+,/s/^([0-9]+(,[01]){6}),0/\1,1/' \
            reference/solve/policy.csv > edges/failing_comm/policy.csv
        for leg in failing_value failing_sense failing_comm; do
            aoi verify "${reference[@]}" --output.directory="edges/$leg"
        done
        for policy in random_bernoulli:0 random_bernoulli:1; do
            aoi simulate --policy="$policy" "${reference[@]}" --sim.seed=1 \
                --output.directory="edges/${policy/:/_}"
        done
        aoi solve "${model[@]}" --model.gamma=0.95 --model.a_max=2 \
            --output.directory=edges/a_max_2
        aoi verify "${model[@]}" --model.gamma=0.95 --model.a_max=2 \
            --output.directory=edges/a_max_2
        aoi solve "${model[@]}" --model.gamma=0.95 --model.a_max=1000 \
            --output.directory=edges/a_max_1000
        aoi verify "${model[@]}" --model.gamma=0.95 --model.a_max=1000 \
            --output.directory=edges/a_max_1000
        aoi solve "${model[@]}" --model.gamma=0.999 --model.a_max=30 \
            --output.directory=edges/gamma_0.999
        aoi sweep --axis=gamma --values=0.99,0.999 "${model[@]}" \
            --model.gamma=0.95 --model.a_max=30 --output.directory=edges/sweep_gamma
        aoi solve "${model[@]}" --model.gamma=0.95 --model.a_max=30 \
            --solver.max_iter=5 --output.directory=edges/max_iter_5
        aoi solve "${model[@]}" --model.gamma=0.95 --model.a_max=30 \
            --solver.tol=1e-15 --solver.max_iter=10 \
            --output.directory=edges/max_iter_10_after_jump
        for edge in gamma=0 lambda_s=1,lambda_c=0 lambda_s=0,lambda_c=1 \
                    c_s=0,c_c=0; do
            local flags=()
            IFS=, read -ra pairs <<< "$edge"
            for kv in "${pairs[@]}"; do flags+=("--model.$kv"); done
            aoi solve "${model[@]}" --model.gamma=0.95 --model.a_max=30 \
                "${flags[@]}" --output.directory="edges/$edge"
            aoi verify "${model[@]}" --model.gamma=0.95 --model.a_max=30 \
                "${flags[@]}" --output.directory="edges/$edge"
            case $edge in
                lambda_*)
                    for policy in optimal alternate random_bernoulli:0.3; do
                        aoi simulate --policy="$policy" "${reference[@]}" \
                            "${flags[@]}" --sim.seed=1 \
                            --output.directory="edges/$edge-${policy/:/_}"
                    done ;;
            esac
        done
        for policy in optimal alternate random_bernoulli:0.3; do
            aoi simulate --policy="$policy" "${model[@]}" --model.gamma=0.95 \
                --model.a_max=300 --sim.n=1000 --sim.horizon=50 --sim.s0=1,1 \
                --sim.seed=1 --output.directory="edges/horizon_50-${policy/:/_}"
        done
        huge=("${model[@]}" --model.c_s=1e140 --model.c_c=1e140
              --model.gamma=0.95 --model.a_max=30)
        aoi solve "${huge[@]}" --output.directory=edges/c_1e140
        aoi verify "${huge[@]}" --output.directory=edges/c_1e140
        aoi simulate --policy=random_bernoulli:0.3 "${huge[@]}" --sim.seed=1 \
            --output.directory=edges/c_1e140-random_bernoulli_0.3
        aoi sweep --axis=c_s --values=1e140,1e145 "${huge[@]}" \
            --output.directory=edges/c_1e140_sweep
        for a_max in 30 300; do
            tiny=("${model[@]}" --model.gamma=1e-6 --model.c_s=0 --model.c_c=0
                  --model.a_max="$a_max")
            aoi solve "${tiny[@]}" --output.directory="edges/gamma_1e-6-$a_max"
            aoi verify "${tiny[@]}" --output.directory="edges/gamma_1e-6-$a_max"
        done
        slow=(--model.lambda_s=0.3 --model.lambda_c=0.5 --model.c_s=0.2
              --model.c_c=0.1 --model.gamma=0.99 --model.a_max=300)
        aoi solve "${slow[@]}" --output.directory=edges/early_cutoff
        aoi verify "${slow[@]}" --output.directory=edges/early_cutoff
        aoi solve "${model[@]}" --model.gamma=0.999 --model.a_max=300 \
            --output.directory=edges/gamma_0.999-300
        aoi verify "${model[@]}" --model.gamma=0.999 --model.a_max=300 \
            --output.directory=edges/gamma_0.999-300
    )
}

run_side "$base" "$work/base"
run_side "$changed" "$work/changed"
exec python3 "$(dirname "$0")/solver_agreement.py" "$work/base" "$work/changed"
