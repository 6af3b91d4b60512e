package benchio

import (
	"os"
	"testing"
)

func TestPeakRSSReportsOnLinux(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status on this platform")
	}
	kb, ok := PeakRSS()
	if !ok || kb == 0 {
		t.Fatalf("PeakRSS = (%d, %v) with /proc available", kb, ok)
	}
}
