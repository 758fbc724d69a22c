#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the Go tool writes — build cache, temporary
# files, its own telemetry under $HOME — is kept under .bench_build, so
# a run reads and writes nothing outside the directory it starts in.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home/.config/go/telemetry"
# A go command that finds no recent telemetry state forks an uploader
# that outlives it; with a fresh HOME that is every first build. Mode
# "off" stops the fork, so no process is left behind when this exits.
echo off >"$build/home/.config/go/telemetry/mode"
gobuild() {
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local \
		go build "$@" -o "$build/provirt-bench" ./bench
}
# In a git work tree the binary carries vcs.revision for the host facts;
# elsewhere (or where git refuses the directory) it is built unstamped.
{ [ -e .git ] && gobuild 2>/dev/null; } || gobuild -buildvcs=false
exec "$build/provirt-bench" "$@"
