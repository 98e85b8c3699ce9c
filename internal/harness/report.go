package harness

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Point is one x-position of an experiment sweep (a selectivity, a
// dimensionality, a division factor, …) with the per-method results.
type Point struct {
	// Label is the x value rendered for the tables ("5e-05", "16", …).
	Label string
	// X is the numeric x value.
	X float64
	// Results maps method names (MethodSS, …) to their measurements.
	Results map[string]MethodResult
}

// Experiment is the reproduced artifact: an identifier from the experiment
// index (see Experiments), a title, the swept points, and the method names
// in display order.
type Experiment struct {
	ID      string
	Title   string
	XLabel  string
	Methods []string
	Points  []Point
	// Notes carries free-form observations (speedups, convergence
	// rounds) appended after the tables.
	Notes []string
}

// Result returns the measurement for a method at point i.
func (e *Experiment) Result(i int, method string) (MethodResult, bool) {
	if i < 0 || i >= len(e.Points) {
		return MethodResult{}, false
	}
	r, ok := e.Points[i].Results[method]
	return r, ok
}

// scenarioMethods maps a method name to the adaptive engine relevant in a
// scenario section: the memory section shows AC-mem and AC-paper, the disk
// section AC-disk; other methods appear in both.
func scenarioMethods(methods []string, disk bool) []string {
	var out []string
	for _, m := range methods {
		if (m == MethodACMem || m == MethodACPaper) && disk {
			continue
		}
		if m == MethodACDisk && !disk {
			continue
		}
		out = append(out, m)
	}
	return out
}

func displayName(method string) string {
	switch method {
	case MethodACMem, MethodACDisk:
		return "AC"
	default:
		return method
	}
}

// Render prints the experiment in the paper's layout: a chart table with
// per-query times and a data-access table per storage scenario.
func (e *Experiment) Render(w io.Writer) error {
	fmt.Fprintf(w, "== %s: %s ==\n", e.ID, e.Title)
	for _, disk := range []bool{false, true} {
		scenario := "Memory Storage Scenario"
		if disk {
			scenario = "Disk Storage Scenario"
		}
		methods := scenarioMethods(e.Methods, disk)
		if len(methods) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n-- %s: modeled query execution time [ms] (measured wall µs in parens) --\n", scenario)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		header := []string{e.XLabel}
		for _, m := range methods {
			header = append(header, displayName(m))
		}
		fmt.Fprintln(tw, strings.Join(header, "\t"))
		for _, p := range e.Points {
			row := []string{p.Label}
			for _, m := range methods {
				r, ok := p.Results[m]
				if !ok {
					row = append(row, "-")
					continue
				}
				ms := r.ModeledMemMS
				if disk {
					ms = r.ModeledDiskMS
				}
				row = append(row, fmt.Sprintf("%.3g (%.0f)", ms, r.MeasuredUS))
			}
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n-- %s: data access --\n", scenario)
		cached, reorg := e.hasCache(methods), e.hasReorg(methods)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		header = []string{e.XLabel}
		for _, m := range methods {
			n := displayName(m)
			header = append(header, n+" parts", n+" expl%", n+" objs%")
			if cached {
				header = append(header, n+" hit%")
			}
			if reorg {
				header = append(header, n+" splits", n+" merges")
			}
		}
		fmt.Fprintln(tw, strings.Join(header, "\t"))
		for _, p := range e.Points {
			row := []string{p.Label}
			for _, m := range methods {
				r, ok := p.Results[m]
				if !ok {
					row = append(row, "-", "-", "-")
					if cached {
						row = append(row, "-")
					}
					if reorg {
						row = append(row, "-", "-")
					}
					continue
				}
				row = append(row,
					fmt.Sprintf("%d", r.Partitions),
					fmt.Sprintf("%.1f", r.ExploredPct),
					fmt.Sprintf("%.1f", r.VerifiedPct))
				if cached {
					row = append(row, cacheHitPct(r))
				}
				if reorg {
					row = append(row, fmt.Sprintf("%d", r.Splits), fmt.Sprintf("%d", r.Merges))
				}
			}
			fmt.Fprintln(tw, strings.Join(row, "\t"))
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
	return nil
}

// hasCache reports whether any of the given methods saw region-cache
// activity at any point; only then does the data-access table carry the
// hit-rate column.
func (e *Experiment) hasCache(methods []string) bool {
	for _, p := range e.Points {
		for _, m := range methods {
			if r, ok := p.Results[m]; ok && r.CacheHits+r.CacheMisses > 0 {
				return true
			}
		}
	}
	return false
}

// hasReorg reports whether any of the given methods reported splits or
// merges at any point; only then does the data-access table carry them.
func (e *Experiment) hasReorg(methods []string) bool {
	for _, p := range e.Points {
		for _, m := range methods {
			if r, ok := p.Results[m]; ok && r.Splits+r.Merges > 0 {
				return true
			}
		}
	}
	return false
}

// cacheHitPct formats a result's region-cache hit rate, "-" without cache
// activity.
func cacheHitPct(r MethodResult) string {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", 100*float64(r.CacheHits)/float64(total))
}

// CSV writes the experiment as comma-separated values, one line per
// (point, method).
func (e *Experiment) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,x,method,partitions,explored_pct,verified_pct,modeled_mem_ms,modeled_disk_ms,measured_us,avg_results,cache_hits,cache_misses,splits,merges"); err != nil {
		return err
	}
	for _, p := range e.Points {
		for _, m := range e.Methods {
			r, ok := p.Results[m]
			if !ok {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%.4f,%.4f,%.6f,%.6f,%.1f,%.2f,%d,%d,%d,%d\n",
				e.ID, p.Label, m, r.Partitions, r.ExploredPct, r.VerifiedPct,
				r.ModeledMemMS, r.ModeledDiskMS, r.MeasuredUS, r.AvgResults,
				r.CacheHits, r.CacheMisses, r.Splits, r.Merges); err != nil {
				return err
			}
		}
	}
	return nil
}
