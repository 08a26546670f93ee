#!/usr/bin/env bash
# Mutation corpus: every scripts/mutants/*.patch plants one bug, and the
# check it names must fail on it. A patch file starts with a description,
# then two header lines and a git diff against the repository root:
#
#   target: <cmake target(s) the check needs>
#   check: <command, run from the copy's root>
#
# The script copies the tracked files of the working tree into a temporary
# directory (under $TMPDIR, removed on exit), builds the targets there and
# runs every check on the unmutated copy, which must pass. Then, for each
# patch, it applies the patch, rebuilds incrementally, runs the check and
# reverts the patch. It exits non-zero if a check fails on the clean copy,
# a patch no longer applies or builds, or any mutant survives its check.
#
# Usage: scripts/run_mutants.sh [PATCH...]   (default: every patch)
set -euo pipefail
repo="$(cd "$(dirname "$0")/.." && pwd)"

if [ "$#" -gt 0 ]; then
  patches=("$@")
else
  patches=("$repo"/scripts/mutants/*.patch)
fi

header() {  # header FIELD PATCH -> the field's value
  sed -n "s/^$1: //p" "$2" | head -n 1
}

work="$(mktemp -d "${TMPDIR:-/tmp}/fjs-mutants.XXXXXX")"
trap 'rm -rf "$work"' EXIT
(cd "$repo" && git ls-files -z | tar --null -T - -cf -) | tar -x -C "$work"

targets=()
for patch in "${patches[@]}"; do
  read -r -a wanted <<< "$(header target "$patch")"
  targets+=("${wanted[@]}")
done
cmake -S "$work" -B "$work/build" -G Ninja > /dev/null
cmake --build "$work/build" -j "$(nproc)" --target "${targets[@]}" > /dev/null

status=0
for patch in "${patches[@]}"; do
  check="$(header check "$patch")"
  if ! (cd "$work" && eval "$check") > /dev/null 2>&1; then
    echo "ERROR: $(basename "$patch"): check fails without the mutant: $check"
    status=1
  fi
done
[ "$status" = 0 ] || exit 1

for patch in "${patches[@]}"; do
  name="$(basename "$patch" .patch)"
  read -r -a wanted <<< "$(header target "$patch")"
  check="$(header check "$patch")"
  if ! git -C "$work" apply "$patch"; then
    echo "ERROR: $name: patch does not apply"
    status=1
    continue
  fi
  if ! cmake --build "$work/build" -j "$(nproc)" --target "${wanted[@]}" \
      > "$work/$name.build.log" 2>&1; then
    echo "ERROR: $name: mutant does not build (see its build log)"
    tail -n 20 "$work/$name.build.log"
    status=1
  elif (cd "$work" && eval "$check") > "$work/$name.log" 2>&1; then
    echo "SURVIVED: $name ($check passed)"
    status=1
  else
    echo "killed: $name by $check"
  fi
  git -C "$work" apply -R "$patch"
done
exit "$status"
