//go:build !linux

package benchio

// PeakRSS reports no high-water mark on platforms without
// /proc/self/status.
func PeakRSS() (kb uint64, ok bool) { return 0, false }
