#!/usr/bin/env bash
# paper_check.sh — the checked-in paper outputs cannot rot (ROADMAP 4c):
# regenerate paper_output.txt and paper_fig{7,8,9}.txt with cmd/paper, at
# the settings EXPERIMENTS.md states, and cmp them against the files in
# the tree. Every number in them is simulated, so any byte that moves is a
# change to the codec or the simulator that nobody wrote down.
#
# paper_output.txt is tables 1-4 at the defaults, then figures 2, 3-5 and
# 6 at -frames 20 -scale 4 (run one section per process, so -fig 3 prints
# the header -all gives the three figures it covers), then a hand-written
# note pointing at the three files below; it is compared up to that note.
#
# Each step prints "section <name> <seconds>" on stderr (build, table1-4,
# fig2/3/6/7/8/9), so a slow figure shows up in the log; BENCH_paper.json
# records one such run per side of a change that moves them.
set -euo pipefail
cd "$(dirname "$0")/.."

# section runs one step and prints its wall time on stderr; the step's
# stdout passes through untouched.
section() {
	local name="$1" t0="$EPOCHREALTIME"
	shift
	"$@"
	awk -v n="$name" -v a="$t0" -v b="$EPOCHREALTIME" 'BEGIN { printf "section %s %.2f\n", n, b - a }' >&2
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
section build go build -o "$tmp/paper" ./cmd/paper

{
	for t in 1 2 3 4; do section "table$t" "$tmp/paper" -table "$t"; done
	for f in 2 3 6; do section "fig$f" "$tmp/paper" -fig "$f" -frames 20 -scale 4; done
} | sed 's/^=== Figure 3 ===$/=== Figures 3-5 ===/' >"$tmp/paper_output.txt"
n="$(wc -c <"$tmp/paper_output.txt")"
head -c "$n" paper_output.txt | cmp - "$tmp/paper_output.txt"
tail -c +"$((n + 1))" paper_output.txt | grep '^(Figures 7-9 were run separately' >/dev/null

for f in 7 8 9; do
	section "fig$f" "$tmp/paper" -fig "$f" -frames 8 | cmp - "paper_fig$f.txt"
done
echo "paper outputs ok: paper_output.txt ($n bytes before its note) and paper_fig{7,8,9}.txt regenerate byte for byte"
