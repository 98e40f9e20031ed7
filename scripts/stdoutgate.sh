#!/usr/bin/env bash
# Stdout identity gate: builds the cmd/ binaries and checks the sha256 of
# each command's stdout in testdata/stdout.sha256 (one "<sha256>  <command>"
# line each; # starts a comment). The commands are the paper artifacts,
# the INA run under each collection scheme, the three all-reduce
# transports, the two-job pipeline and the merge heatmap, so a change to
# any simulated schedule, any result or any rendering shows here. It then checks the telemetry files: each line
# of testdata/telemetry.sha256 ("<csv sha256> <trace sha256>  <command>")
# runs its command with -metrics and -trace appended and compares the
# sha256 of the metrics CSV and of the Chrome trace it wrote. Exits
# non-zero if any output differs.
set -euo pipefail
cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/...

fail=0
while read -r want cmd; do
	case "$want" in '' | '#'*) continue ;; esac
	# $cmd is split into the binary name and its flags on purpose.
	# shellcheck disable=SC2086
	got="$("$bin"/$cmd 2>/dev/null | sha256sum | cut -d' ' -f1)"
	if [ "$got" = "$want" ]; then
		echo "ok    $cmd"
	else
		echo "FAIL  $cmd: sha256 $got, want $want" >&2
		fail=1
	fi
done < testdata/stdout.sha256

while read -r wantCSV wantTrace cmd; do
	case "$wantCSV" in '' | '#'*) continue ;; esac
	rm -f "$bin/m.csv" "$bin/t.json"
	# shellcheck disable=SC2086
	"$bin"/$cmd -metrics "$bin/m.csv" -trace "$bin/t.json" > /dev/null 2>&1 || true
	gotCSV="$(sha256sum < "$bin/m.csv" 2>/dev/null | cut -d' ' -f1 || true)"
	gotTrace="$(sha256sum < "$bin/t.json" 2>/dev/null | cut -d' ' -f1 || true)"
	if [ "$gotCSV" = "$wantCSV" ] && [ "$gotTrace" = "$wantTrace" ]; then
		echo "ok    $cmd -metrics -trace"
	else
		echo "FAIL  $cmd -metrics -trace: sha256 $gotCSV $gotTrace, want $wantCSV $wantTrace" >&2
		fail=1
	fi
done < testdata/telemetry.sha256
exit "$fail"
