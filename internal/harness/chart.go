package harness

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// ASCII chart rendering: the paper presents Figs. 7 and 8 as line charts
// (query execution time against selectivity or dimensionality, the disk
// charts on a logarithmic time scale). RenderChart regenerates that visual
// shape in the terminal so crossovers are visible at a glance. The generic
// renderer, RenderSeries, is shared with the telemetry decoder (cmd/acstat),
// which plots per-second flight-recorder gauges with it.

const (
	chartHeight = 16
	chartColGap = 8
)

// seriesGlyphs assigns one plot glyph per method.
var seriesGlyphs = map[string]byte{
	MethodSS:     'S',
	MethodRS:     'R',
	MethodACMem:  'A',
	MethodACDisk: 'A',
	MethodMBB:    'M',
	MethodScan:   'C',
}

// chartValue extracts the plotted value for a method at a point.
func chartValue(r MethodResult, disk bool) float64 {
	if disk {
		return r.ModeledDiskMS
	}
	return r.ModeledMemMS
}

// Series is one plotted line: a display name, a plot glyph, and one value
// per x label. Values ≤ 0 or NaN are treated as missing and skipped.
type Series struct {
	Name   string
	Glyph  byte
	Values []float64
}

// RenderSeries draws an ASCII line chart of the given series over the shared
// x labels. Title is printed above the grid; logScale switches the y axis to
// logarithmic (values must be positive either way — non-positive points are
// skipped). It is the rendering core of RenderChart and is also used by
// cmd/acstat for flight-recorder gauge series.
func RenderSeries(w io.Writer, title string, labels []string, series []Series, logScale bool) error {
	if len(labels) == 0 || len(series) == 0 {
		return fmt.Errorf("harness: nothing to chart")
	}

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for _, v := range s.Values {
			if v <= 0 || math.IsNaN(v) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if !(hi >= lo) {
		return fmt.Errorf("harness: no positive values to chart")
	}
	if hi == lo {
		hi = lo * 1.01
	}
	yOf := func(v float64) int {
		var frac float64
		if logScale {
			frac = (math.Log(v) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
		} else {
			frac = (v - lo) / (hi - lo)
		}
		row := int(math.Round(frac * float64(chartHeight-1)))
		if row < 0 {
			row = 0
		}
		if row > chartHeight-1 {
			row = chartHeight - 1
		}
		return chartHeight - 1 - row // row 0 is the top
	}

	width := len(labels) * chartColGap
	grid := make([][]byte, chartHeight)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for pi := range labels {
		x := pi*chartColGap + chartColGap/2
		for _, s := range series {
			if pi >= len(s.Values) {
				continue
			}
			v := s.Values[pi]
			if v <= 0 || math.IsNaN(v) {
				continue
			}
			y := yOf(v)
			g := s.Glyph
			if g == 0 {
				g = '*'
			}
			if grid[y][x] == ' ' {
				grid[y][x] = g
			} else if grid[y][x] != g {
				grid[y][x] = '+' // collision marker
			}
			// Move overlapping glyphs one column right so close
			// series stay distinguishable.
			if grid[y][x] == '+' && x+1 < width && grid[y][x+1] == ' ' {
				grid[y][x+1] = g
			}
		}
	}

	fmt.Fprintln(w, title)
	for i, row := range grid {
		var label string
		switch i {
		case 0:
			label = fmt.Sprintf("%8.3g", hi)
		case chartHeight - 1:
			label = fmt.Sprintf("%8.3g", lo)
		default:
			label = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(w, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	var xaxis strings.Builder
	xaxis.WriteString(strings.Repeat(" ", 10))
	for _, l := range labels {
		xaxis.WriteString(fmt.Sprintf("%-*s", chartColGap, l))
	}
	fmt.Fprintln(w, strings.TrimRight(xaxis.String(), " "))
	var legend []string
	seen := map[byte]bool{}
	for _, s := range series {
		g := s.Glyph
		if g == 0 {
			g = '*'
		}
		if !seen[g] {
			seen[g] = true
			legend = append(legend, fmt.Sprintf("%c=%s", g, s.Name))
		}
	}
	fmt.Fprintf(w, "%s (+ = overlap)\n\n", strings.Join(legend, "  "))
	return nil
}

// RenderChart draws the experiment's modeled per-query times as an ASCII
// line chart for one storage scenario. Log scale mirrors the paper's disk
// charts.
func (e *Experiment) RenderChart(w io.Writer, disk, logScale bool) error {
	methods := scenarioMethods(e.Methods, disk)
	if len(methods) == 0 || len(e.Points) == 0 {
		return fmt.Errorf("harness: nothing to chart")
	}
	scenario := "memory"
	if disk {
		scenario = "disk"
	}
	scale := "linear"
	if logScale {
		scale = "log"
	}

	labels := make([]string, len(e.Points))
	for i, p := range e.Points {
		labels[i] = p.Label
	}
	series := make([]Series, 0, len(methods))
	for _, m := range methods {
		s := Series{Name: displayName(m), Glyph: seriesGlyphs[m]}
		s.Values = make([]float64, len(e.Points))
		for i, p := range e.Points {
			if r, ok := p.Results[m]; ok {
				s.Values[i] = chartValue(r, disk)
			}
		}
		series = append(series, s)
	}
	title := fmt.Sprintf("%s — %s scenario, modeled ms/query (%s scale)", e.Title, scenario, scale)
	return RenderSeries(w, title, labels, series, logScale)
}
