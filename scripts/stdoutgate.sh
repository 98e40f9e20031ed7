#!/usr/bin/env bash
# Stdout identity gate: builds the cmd/ binaries and checks the sha256 of
# each command's stdout in testdata/stdout.sha256 (one "<sha256>  <command>"
# line each; # starts a comment). The commands are the paper artifacts,
# the INA run, the three all-reduce transports, the two-job pipeline and
# the merge heatmap, so a change to any simulated schedule, any result or
# any rendering shows here. Exits non-zero if any output differs.
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
exit "$fail"
