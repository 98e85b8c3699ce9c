package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// commit is the source revision, stamped by run.sh through -ldflags; the
// build info's VCS stamp is the fallback.
var commit = ""

// cpuTicks is the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ steal, total uint64 }

// readTicks reads the host-wide CPU tick counters. ok is false where
// /proc/stat is unavailable; steal is then reported as 0.
func readTicks() (t cpuTicks, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return t, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return t, false
	}
	fields := strings.Fields(sc.Text())
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so the first eight sum to the total.
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealShare returns the share of host CPU ticks between two readings that
// the hypervisor gave to other guests.
func stealShare(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// hostRecord describes the machine a run measured on, so a noisy run can be
// told from a regression.
type hostRecord struct {
	GoVersion  string
	GOMAXPROCS int
	NProc      int
	Commit     string
}

func newHostRecord() hostRecord {
	c := commit
	if c == "" {
		c = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					c = s.Value
				}
			}
		}
	}
	return hostRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Commit:     c,
	}
}

func (h hostRecord) String() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d commit=%s", h.GoVersion, h.GOMAXPROCS, h.NProc, h.Commit)
}
