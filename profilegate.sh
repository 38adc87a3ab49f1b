#!/bin/sh
# profilegate.sh — the phase-attribution gate over a CPU profile captured
# with -profile-dir (every obs span labels its goroutine phase=<span>).
#
#   sh profilegate.sh .profile-smoke/snntestgen.cpu.pprof
#
# Both shares are read by `go tool pprof` from its "Showing nodes
# accounting for X, P% of T total" header line (with -nodefraction=0 the
# shown nodes are every sample the filters keep):
#
#   - unlabelled share: samples carrying no phase label
#     (-tagignore='phase=.') must be at most 5% of the profile;
#   - kernel share: the restart, stage-2 and calibration subtrees must
#     hold at least 80% of the generate subtree's CPU. A profile with no
#     generate samples fails.
#
# The per-phase CPU table (`go tool pprof -tags`) is written to
# phases.txt next to the profile. Exit status 1 means the gate failed.
set -eu
prof=$1

# share FILTER prints the percentage of all samples that FILTER keeps.
share() {
    go tool pprof -top -nodefraction=0 "$1" "$prof" 2>/dev/null |
        sed -n 's/^Showing nodes accounting for .*, \([0-9.]*\)% of .* total$/\1/p'
}
unlabelled=$(share -tagignore='phase=.')
kernel=$(share -tagfocus='phase=^generate/(restart|stage2|calibrate)(/|$)')
generate=$(share -tagfocus='phase=^generate(/|$)')
if [ -z "$unlabelled" ] || [ -z "$kernel" ] || [ -z "$generate" ]; then
    echo "profilegate.sh: go tool pprof could not read $prof" >&2
    exit 1
fi
go tool pprof -tags "$prof" >"$(dirname "$prof")/phases.txt" 2>/dev/null

awk -v u="$unlabelled" -v k="$kernel" -v g="$generate" 'BEGIN {
    printf "profile gate: %.2f%% unlabelled (max 5%%)", u
    if (g > 0) printf ", kernel share of generate %.3f (min 0.80)\n", k / g
    else printf ", no generate samples\n"
    fflush()
    fail = 0
    if (u > 5) { print "profilegate.sh: unlabelled share " u "% > 5%" > "/dev/stderr"; fail = 1 }
    if (g == 0) { print "profilegate.sh: no CPU in generate; cannot check the kernel share" > "/dev/stderr"; fail = 1 }
    else if (k / g < 0.80) { print "profilegate.sh: kernel share " k / g " of generate < 0.80" > "/dev/stderr"; fail = 1 }
    exit fail
}'
