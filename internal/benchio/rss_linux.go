//go:build linux

// Package benchio reads the process's peak resident set size. The
// repository benchmark (perfbench) reports it as peak_rss_mb and cdpd
// exports it as the cdpd_peak_rss_kb gauge.
package benchio

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

// PeakRSS reads the process's resident-set high-water mark (VmHWM) from
// /proc/self/status, in KiB. ok is false when the field cannot be read, so
// callers can tell "unavailable" from a measured value.
func PeakRSS() (kb uint64, ok bool) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%d kB", &kb); err == nil {
			return kb, true
		}
		return 0, false
	}
	return 0, false
}
