package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/app"
	"repro/internal/engines"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Options scales the experiments. Scale 1.0 and PMax 1e7 replicate the
// paper's sizes; smaller values trade fidelity for runtime.
type Options struct {
	// Scale compresses the border-router trace duration (Figure 3,
	// Table 1, Figures 11-13): 1.0 is the paper's 32 s at the paper's
	// rates; smaller values shorten the trace without thinning the
	// rates. Default 1.0.
	Scale float64
	// PMax caps the constant-rate sweep (Figures 8-10). Default 1e7.
	PMax uint64
	// ScalePackets is the per-NIC packet count for Figure 14 (the paper
	// sends 1e9; default here 2e6, which reaches steady state).
	ScalePackets uint64
	// Seed drives every workload.
	Seed uint64
	// CSV renders results as CSV instead of aligned text.
	CSV bool
}

func (o *Options) setDefaults() {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.PMax == 0 {
		o.PMax = 10_000_000
	}
	if o.ScalePackets == 0 {
		o.ScalePackets = 2_000_000
	}
}

// Table is a rendered experiment result: the rows the paper's figure or
// table reports.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
}

// WriteCSV renders the table as CSV (one header row, then data rows),
// for plotting the figures with external tools.
func (t Table) WriteCSV(w io.Writer) error {
	quote := func(cells []string) string {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		return strings.Join(out, ",")
	}
	if _, err := fmt.Fprintf(w, "# %s: %s\n%s\n", t.ID, t.Title, quote(t.Columns)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := io.WriteString(w, quote(row)+"\n"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Write renders the table as aligned text.
func (t Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", t.ID, t.Title)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for i := range t.Columns {
		t.Columns[i] = strings.Repeat("-", widths[i])
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// ratio divides two counters, mapping the nothing-offered case to 0
// instead of NaN (a run whose source emitted no packets has no drop
// rate, not an undefined one).
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Fig3 reproduces Figure 3 (and Experiment 1): the per-queue load time
// series of the border-router trace captured with DNA and profiled in
// 10 ms bins. The table reports summary statistics; Series returns the
// raw bins for plotting.
func Fig3(opt Options) (Table, *app.QueueProfiler, error) {
	opt.setDefaults()
	prof := app.NewQueueProfiler(6)
	dur := vtime.Time(32 * opt.Scale * float64(vtime.Second))
	res, err := Host{
		Spec: DNA, Queues: 6,
		Handler: func(*metrics.Registry) engines.Handler { return prof },
		Source:  trace.NewBorder(trace.BorderConfig{Queues: 6, Duration: dur, Seed: opt.Seed}),
	}.Run()
	if err != nil {
		return Table{}, nil, err
	}

	t := Table{
		ID:      "Figure 3",
		Title:   "Load imbalance: per-queue traffic, 10 ms bins (DNA, queue_profiler)",
		Columns: []string{"queue", "packets", "mean p/s", "peak pkts/10ms"},
	}
	seconds := dur.Seconds()
	for q := 0; q < 6; q++ {
		total := prof.Total(q)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", q),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%.0f", float64(total)/seconds),
			fmt.Sprintf("%d", prof.Peak(q)),
		})
	}
	t.Rows = append(t.Rows, []string{"total", fmt.Sprintf("%d", res.Sent), "", ""})
	return t, prof, nil
}

// Table1 reproduces Table 1: capture vs delivery drop rates of NETMAP,
// DNA, and PF_RING on the border trace at x=300, for the hot queue (0)
// and the bursty queue (3).
func Table1(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{NETMAP, DNA, PFRing}
	t := Table{
		ID:    "Table 1",
		Title: "Packet drop rates (border trace, x=300, ring 1024, pf_ring 10240)",
		Columns: []string{"engine",
			"q0 capture", "q0 delivery", "q3 capture", "q3 delivery"},
	}
	t.Rows = make([][]string, len(specs))
	err := forEach(len(specs), func(i int) error {
		spec := specs[i]
		res, offered, err := RunBorder(BorderRun{Spec: spec, Queues: 6, X: 300, Scale: opt.Scale, Seed: opt.Seed})
		if err != nil {
			return err
		}
		t.Rows[i] = []string{
			spec.Name(),
			pct(res.CaptureDropRate(0, offered[0])),
			pct(res.DeliveryDropRate(0, offered[0])),
			pct(res.CaptureDropRate(3, offered[3])),
			pct(res.DeliveryDropRate(3, offered[3])),
		}
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return t, nil
}

// pSweep returns the burst lengths for Figures 8-10, capped at PMax.
func pSweep(pmax uint64) []uint64 {
	all := []uint64{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	var out []uint64
	for _, p := range all {
		if p <= pmax {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []uint64{pmax}
	}
	return out
}

func burstTable(id, title string, specs []EngineSpec, x int, opt Options) (Table, error) {
	ps := pSweep(opt.PMax)
	t := Table{ID: id, Title: title, Columns: []string{"engine"}}
	for _, p := range ps {
		t.Columns = append(t.Columns, fmt.Sprintf("P=%d", p))
	}
	for _, spec := range specs {
		row := []string{spec.Name()}
		row = append(row, make([]string, len(ps))...)
		t.Rows = append(t.Rows, row)
	}
	// Every (engine, P) cell is an independent simulation: run them on
	// all cores.
	err := forEach(len(specs)*len(ps), func(i int) error {
		si, pi := i/len(ps), i%len(ps)
		res, err := RunConstant(ConstantRun{Spec: specs[si], Packets: ps[pi], X: x, Seed: opt.Seed})
		if err != nil {
			return err
		}
		t.Rows[si][1+pi] = pct(res.DropRate())
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return t, nil
}

// Fig8 reproduces Figure 8: basic-mode capture at wire rate with no
// processing load (x=0).
func Fig8(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{
		DNA, PFRing, NETMAP,
		WireCAPB(64, 100), WireCAPB(128, 100), WireCAPB(256, 100), WireCAPB(256, 500),
	}
	return burstTable("Figure 8", "Basic mode, x=0: drop rate vs burst length P (64B @ wire rate)",
		specs, 0, opt)
}

// Fig9 reproduces Figure 9: basic-mode capture under a heavy processing
// load (x=300).
func Fig9(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{
		DNA, PFRing, NETMAP, WireCAPB(256, 100), WireCAPB(256, 500),
	}
	return burstTable("Figure 9", "Basic mode, x=300: drop rate vs burst length P (64B @ wire rate)",
		specs, 300, opt)
}

// Fig10 reproduces Figure 10: with R*M fixed, the individual R and M do
// not matter.
func Fig10(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{WireCAPB(64, 400), WireCAPB(128, 200), WireCAPB(256, 100)}
	return burstTable("Figure 10", "Basic mode, x=300: R and M varied, R*M fixed at 25,600",
		specs, 300, opt)
}

// queueSweepTable runs border-trace experiments across 4/5/6 queues.
func queueSweepTable(id, title string, specs []EngineSpec, opt Options, forward bool) (Table, error) {
	queues := []int{4, 5, 6}
	t := Table{ID: id, Title: title, Columns: []string{"engine", "4 queues", "5 queues", "6 queues"}}
	for _, spec := range specs {
		t.Rows = append(t.Rows, []string{spec.Name(), "", "", ""})
	}
	err := forEach(len(specs)*len(queues), func(i int) error {
		si, qi := i/len(queues), i%len(queues)
		res, _, err := RunBorder(BorderRun{
			Spec: specs[si], Queues: queues[qi], X: 300,
			Scale: opt.Scale, Seed: opt.Seed, Forward: forward,
		})
		if err != nil {
			return err
		}
		t.Rows[si][1+qi] = pct(res.DropRate())
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return t, nil
}

// Fig11 reproduces Figure 11: advanced mode vs basic mode vs the
// baselines on the border trace across 4-6 queues.
func Fig11(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{
		PFRing, DNA, NETMAP,
		WireCAPB(256, 100), WireCAPB(256, 500),
		WireCAPA(256, 100, 60), WireCAPA(256, 500, 60),
	}
	return queueSweepTable("Figure 11",
		"Advanced mode (border trace, x=300): overall drop rate", specs, opt, false)
}

// Fig12 reproduces Figure 12: the offloading threshold sweep.
func Fig12(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{
		WireCAPA(256, 100, 60), WireCAPA(256, 100, 70),
		WireCAPA(256, 100, 80), WireCAPA(256, 100, 90),
	}
	return queueSweepTable("Figure 12",
		"Advanced mode threshold sweep (border trace, x=300)", specs, opt, false)
}

// Fig13 reproduces Figure 13: the forwarding middlebox. NETMAP is absent
// exactly as in the paper (its sync cannot run per queue).
func Fig13(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{
		PFRing, DNA,
		WireCAPB(256, 100), WireCAPB(256, 500),
		WireCAPA(256, 100, 60), WireCAPA(256, 500, 60),
	}
	return queueSweepTable("Figure 13",
		"Packet forwarding (border trace, x=300): end-to-end drop rate", specs, opt, true)
}

// Fig14 reproduces Figure 14: two NICs at wire rate on a shared bus,
// 64-byte and 100-byte frames, 1-6 queues per NIC, forwarding.
func Fig14(opt Options) (Table, error) {
	opt.setDefaults()
	specs := []EngineSpec{DNA, WireCAPA(256, 100, 60), WireCAPA(256, 500, 60)}
	frames := []struct {
		label string
		bytes int
	}{{"64B", 60}, {"100B", 96}}
	t := Table{ID: "Figure 14", Title: "Scalability: 2 NICs @ wire rate, shared bus, forwarding",
		Columns: []string{"engine@frame", "q/NIC=1", "q/NIC=2", "q/NIC=3", "q/NIC=4", "q/NIC=5", "q/NIC=6"}}
	for _, spec := range specs {
		for _, fr := range frames {
			row := []string{spec.Name() + "@" + fr.label}
			row = append(row, make([]string, 6)...)
			t.Rows = append(t.Rows, row)
		}
	}
	nf := len(frames)
	err := forEach(len(specs)*nf*6, func(i int) error {
		si := i / (nf * 6)
		fi := (i / 6) % nf
		q := i%6 + 1
		rate, err := RunScalability(ScalabilityRun{
			Spec: specs[si], QueuesPerNIC: q, FrameLen: frames[fi].bytes,
			Packets: opt.ScalePackets, Seed: opt.Seed,
		})
		if err != nil {
			return err
		}
		t.Rows[si*nf+fi][q] = pct(rate)
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	return t, nil
}

// experiments lists the paper's tables and figures in paper order, by
// their short names.
var experiments = []struct {
	name string
	run  func(Options) (Table, error)
}{
	{"fig3", func(o Options) (Table, error) {
		t, _, err := Fig3(o)
		return t, err
	}},
	{"table1", Table1},
	{"fig8", Fig8}, {"fig9", Fig9}, {"fig10", Fig10},
	{"fig11", Fig11}, {"fig12", Fig12}, {"fig13", Fig13}, {"fig14", Fig14},
}

// All runs every experiment in paper order and writes the tables to w.
func All(opt Options, w io.Writer) error {
	for _, e := range experiments {
		t, err := e.run(opt)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.name, err)
		}
		if err := opt.render(t, w); err != nil {
			return err
		}
	}
	return nil
}

// ByName runs a single experiment by its short name ("fig3" ... "fig14",
// "table1"), or one of the "ablations", "chaos", "fleet" and "all" suites.
func ByName(name string, opt Options, w io.Writer) error {
	switch name {
	case "ablations":
		return Ablations(opt, w)
	case "chaos":
		return Chaos(opt, w)
	case "fleet":
		return Fleet(opt, w)
	case "all":
		if err := All(opt, w); err != nil {
			return err
		}
		return Ablations(opt, w)
	}
	for _, e := range experiments {
		if e.name == name {
			t, err := e.run(opt)
			if err != nil {
				return err
			}
			return opt.render(t, w)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", name)
}

// render writes a table in the configured format.
func (o Options) render(t Table, w io.Writer) error {
	if o.CSV {
		return t.WriteCSV(w)
	}
	return t.Write(w)
}
