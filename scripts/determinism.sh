#!/usr/bin/env bash
# determinism.sh — the byte-identical gates.
#
# CSV: run cmd/sweep twice on a tiny 2x3 crf×refs grid over the smallest
# proxy in the vbench catalog (presentation: 1080p source, entropy 0.2,
# ~480x270 proxy), once at GOMAXPROCS=1 and once at GOMAXPROCS=4, and cmp
# the outputs. Each run is a fresh process, so every cache is cold both
# times, and the two pool widths finish points in different orders; any
# nondeterminism in the simulator, the worker pool's completion order, or
# the sweep's row ordering shows up as a byte diff. A 4-frame clip reaches
# one reference, so the refs 2 and 8 rows share the refs 1 run
# (core.Engine.Sweep) and the cmp covers shared rows at no extra encode.
#
# Segment stitch: for each of 1/2/4 segments, encode the same clip twice —
# once serially (the reference: fresh encoder per segment, one shared trace
# sink) and once with fully independent segment encoders and trace
# recorders run in reverse order, stitched afterwards — and cmp both the
# bitstreams AND the instrumentation traces byte-for-byte. The 1-segment
# serial run must also equal the plain un-segmented encode, closing the
# chain back to EncodeAll — the tentpole contract of the segment-parallel
# transcode path. (A 2-segment encode is intentionally a different
# bitstream than a whole-clip encode: every segment opens a closed GOP.)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

args=(-mode crf-refs -video presentation -frames 4 -crfs 23,33 -refs 1,2,8)

go build -o "$tmp/sweep" ./cmd/sweep
GOMAXPROCS=1 "$tmp/sweep" "${args[@]}" >"$tmp/a.csv"
GOMAXPROCS=4 "$tmp/sweep" "${args[@]}" >"$tmp/b.csv"

cmp "$tmp/a.csv" "$tmp/b.csv"
echo "determinism ok: fresh-process cold-cache sweeps at GOMAXPROCS 1 and 4 produced byte-identical CSV ($(wc -c <"$tmp/a.csv") bytes)"

go build -o "$tmp/transcode" ./cmd/transcode
enc=(-video desktop -frames 8 -scale 8 -crf 28)

"$tmp/transcode" "${enc[@]}" -o "$tmp/plain.rvc" >/dev/null

for parts in 1 2 4; do
	"$tmp/transcode" "${enc[@]}" -segments "$parts" \
		-o "$tmp/serial$parts.rvc" -trace-out "$tmp/serial$parts.trace" >/dev/null
	"$tmp/transcode" "${enc[@]}" -segments "$parts" -independent \
		-o "$tmp/split$parts.rvc" -trace-out "$tmp/split$parts.trace" >/dev/null
	cmp "$tmp/serial$parts.rvc" "$tmp/split$parts.rvc"
	cmp "$tmp/serial$parts.trace" "$tmp/split$parts.trace"
done
cmp "$tmp/plain.rvc" "$tmp/serial1.rvc"
echo "determinism ok: 1/2/4-segment independent encodes stitched byte-identical bitstreams and traces ($(wc -c <"$tmp/serial4.rvc") + $(wc -c <"$tmp/serial4.trace") bytes at 4 segments)"
