package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestScenarioMethodSelection(t *testing.T) {
	methods := []string{MethodSS, MethodRS, MethodACMem, MethodACDisk}
	mem := scenarioMethods(methods, false)
	disk := scenarioMethods(methods, true)
	has := func(list []string, m string) bool {
		for _, x := range list {
			if x == m {
				return true
			}
		}
		return false
	}
	if !has(mem, MethodACMem) || has(mem, MethodACDisk) {
		t.Errorf("memory section methods: %v", mem)
	}
	if !has(disk, MethodACDisk) || has(disk, MethodACMem) {
		t.Errorf("disk section methods: %v", disk)
	}
	if !has(mem, MethodSS) || !has(disk, MethodSS) {
		t.Error("SS must appear in both sections")
	}
}

func TestDisplayName(t *testing.T) {
	if displayName(MethodACMem) != "AC" || displayName(MethodACDisk) != "AC" {
		t.Error("adaptive variants display as AC")
	}
	if displayName(MethodSS) != "SS" || displayName(MethodScan) != "scan" {
		t.Error("other methods display verbatim")
	}
}

func TestRenderSectionsShowTheRightAdaptiveVariant(t *testing.T) {
	exp := chartExperiment()
	var buf bytes.Buffer
	if err := exp.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	memIdx := strings.Index(out, "Memory Storage Scenario")
	diskIdx := strings.Index(out, "Disk Storage Scenario")
	if memIdx < 0 || diskIdx < 0 || memIdx > diskIdx {
		t.Fatalf("section layout wrong:\n%s", out)
	}
	memSection := out[memIdx:diskIdx]
	// The memory section must carry AC-mem's modeled value (5.1), the
	// disk section AC-disk's (149).
	if !strings.Contains(memSection, "5.1") {
		t.Errorf("memory section missing AC-mem value:\n%s", memSection)
	}
	diskSection := out[diskIdx:]
	if !strings.Contains(diskSection, "149") {
		t.Errorf("disk section missing AC-disk value:\n%s", diskSection)
	}
}

func TestRenderHandlesMissingMethods(t *testing.T) {
	exp := &Experiment{
		ID: "x", Title: "partial", XLabel: "p",
		Methods: []string{MethodSS, MethodRS},
		Points: []Point{{
			Label:   "1",
			Results: map[string]MethodResult{MethodSS: {ModeledMemMS: 1, ModeledDiskMS: 2, Partitions: 1}},
		}},
	}
	var buf bytes.Buffer
	if err := exp.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-") {
		t.Error("missing methods must render as dashes")
	}
	buf.Reset()
	if err := exp.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 { // header + the one present method
		t.Errorf("CSV lines: %d", len(lines))
	}
}
