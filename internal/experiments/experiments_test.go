package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "fig3", "goodput", "fig7", "fig9", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "straggler", "faultsweep", "failover", "partition", "churn", "replication", "serving"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry ids = %v, want %v", got, want)
		}
	}
	if _, ok := ByID("fig14"); !ok {
		t.Fatal("ByID(fig14) missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) found")
	}
}

// Table 1: analytic numbers must match the paper to its printed
// precision, and measured numbers must match the analytic closed form.
func TestTable1MatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if rel(row.ECAnalyticGiB, row.PaperECGiB) > 0.08 {
			t.Errorf("%s/%d: EC analytic %.2f vs paper %.2f", row.Model, row.NumGPUs, row.ECAnalyticGiB, row.PaperECGiB)
		}
		if rel(row.DCAnalyticGiB, row.PaperDCGiB) > 0.08 {
			t.Errorf("%s/%d: DC analytic %.2f vs paper %.2f", row.Model, row.NumGPUs, row.DCAnalyticGiB, row.PaperDCGiB)
		}
		if rel(row.ECMeasuredGiB, row.ECAnalyticGiB) > 0.01 {
			t.Errorf("%s/%d: EC measured %.3f vs analytic %.3f", row.Model, row.NumGPUs, row.ECMeasuredGiB, row.ECAnalyticGiB)
		}
		if rel(row.DCMeasuredGiB, row.DCAnalyticGiB) > 0.01 {
			t.Errorf("%s/%d: DC measured %.3f vs analytic %.3f", row.Model, row.NumGPUs, row.DCMeasuredGiB, row.DCAnalyticGiB)
		}
	}
	if !strings.Contains(res.Render(), "Table 1") {
		t.Error("render missing title")
	}
}

func rel(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestFig3SharesInBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.A2AShare < 0.25 || row.A2AShare > 0.88 {
			t.Errorf("%s/%d: share %.2f outside band", row.Model, row.NumGPUs, row.A2AShare)
		}
		t.Logf("%s/%d iter=%.1fms share=%.1f%%", row.Model, row.NumGPUs, row.IterMs, row.A2AShare*100)
	}
}

func TestGoodputRatio(t *testing.T) {
	res, err := Goodput()
	if err != nil {
		t.Fatal(err)
	}
	if !(res.IntraGbps > res.InterGbps*5) {
		t.Fatalf("intra %.1f not ≫ inter %.1f", res.IntraGbps, res.InterGbps)
	}
	// The paper measured an 18x gap; the simulated fabric must land in
	// the same decade.
	if res.Ratio < 6 || res.Ratio > 60 {
		t.Fatalf("intra/inter ratio %.1f implausible vs paper's 18x", res.Ratio)
	}
	t.Log(strings.TrimSpace(res.Render()))
}

func TestFig7StaggeredWins(t *testing.T) {
	res, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.2 {
		t.Fatalf("staggered speedup %.2f too small", res.Speedup)
	}
	// Same-order sends every worker to the same source at once (peak m-1
	// pullers); staggering keeps the peak near the credit window since
	// workers start on distinct sources and only drift together slowly.
	if res.SameOrderMaxPullers != res.Workers-1 {
		t.Fatalf("same-order peak pullers = %d, want %d", res.SameOrderMaxPullers, res.Workers-1)
	}
	if res.StaggeredMaxPullers >= res.SameOrderMaxPullers {
		t.Fatalf("contention not visible: same=%d staggered=%d",
			res.SameOrderMaxPullers, res.StaggeredMaxPullers)
	}
	t.Log(strings.TrimSpace(res.Render()))
}

func TestFig9PairedWins(t *testing.T) {
	res, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.3 {
		t.Fatalf("switch-aware speedup %.2f, want ~2x", res.Speedup)
	}
	if res.Speedup > 2.5 {
		t.Fatalf("switch-aware speedup %.2f implausibly high", res.Speedup)
	}
	t.Log(strings.TrimSpace(res.Render()))
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Fig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.DataCentric <= 1 {
			t.Errorf("%s: data-centric speedup %.2f <= 1", row.Model, row.DataCentric)
		}
		if row.PlusTopo < row.DataCentric*0.98 {
			t.Errorf("%s: topo made it worse (%.2f -> %.2f)", row.Model, row.DataCentric, row.PlusTopo)
		}
		if row.PlusPrefetch < row.PlusTopo*0.98 {
			t.Errorf("%s: prefetch made it worse (%.2f -> %.2f)", row.Model, row.PlusTopo, row.PlusPrefetch)
		}
		t.Logf("%s: dc=%.2fx topo=%.2fx pref=%.2fx (paper %.2f -> %.2f)",
			row.Model, row.DataCentric, row.PlusTopo, row.PlusPrefetch,
			row.PaperDataCentric, row.PaperAll)
	}
}

func TestFig13Overlap(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.BlockDoneMs) != 12 {
		t.Fatalf("block marks = %d", len(res.BlockDoneMs))
	}
	if res.ExpertsEarly == 0 {
		t.Fatal("no experts arrived before the gate — prefetch not visible")
	}
	if res.OverlapMs <= 0 {
		t.Fatalf("overlap %.1fms, want positive", res.OverlapMs)
	}
	if res.ForwardSpeedup <= 1 {
		t.Fatalf("forward speedup %.2f", res.ForwardSpeedup)
	}
	t.Logf("fwd=%.1fms overlap=%.1fms speedup=%.2fx early=%d (paper 210.4ms / 74.9ms / 1.36x / 12)",
		res.ForwardMs, res.OverlapMs, res.ForwardSpeedup, res.ExpertsEarly)
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Speedup <= 1.1 {
			t.Errorf("%s: speedup %.2f", row.Model, row.Speedup)
		}
		t.Logf("%s: %.2fx (paper %.2fx)", row.Model, row.Speedup, row.PaperSpeedup)
	}
}

func TestFig15BatchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	// Group rows per model: time grows with B in both systems and the
	// speedup grows with B (Tutel more sensitive).
	byModel := map[string][]SensitivityRow{}
	for _, row := range res.Rows {
		byModel[row.Model] = append(byModel[row.Model], row)
	}
	for model, rows := range byModel {
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows", model, len(rows))
		}
		small, big := rows[0], rows[1]
		if !(big.TutelMs > small.TutelMs && big.JanusMs > small.JanusMs) {
			t.Errorf("%s: time did not grow with batch", model)
		}
		if !(big.Speedup >= small.Speedup-0.02) {
			t.Errorf("%s: speedup fell with batch: %.2f -> %.2f", model, small.Speedup, big.Speedup)
		}
		t.Logf("%s: B=%d %.2fx, B=%d %.2fx", model, small.Value, small.Speedup, big.Value, big.Speedup)
	}
}

func TestFig16SeqShapeAndOOM(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	sawOOM := false
	for _, row := range res.Rows {
		if row.Model == "MoE-BERT" && row.Value == 512 {
			if !row.TutelOOM {
				t.Error("MoE-BERT S=512 should OOM under Tutel")
			}
			sawOOM = true
			if row.JanusMs <= 0 {
				t.Error("Janus should complete at S=512")
			}
		} else if row.TutelOOM {
			t.Errorf("unexpected OOM: %s %s=%d", row.Model, row.Param, row.Value)
		}
	}
	if !sawOOM {
		t.Fatal("OOM row missing")
	}
	t.Log("\n" + res.Render())
}

func TestFig17UnifiedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Fig17()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.UnifiedMs > row.PureECMs*1.001 || row.UnifiedMs > row.PureDCMs*1.001 {
			t.Errorf("%s: unified (%.1f) not <= pure EC (%.1f) and pure DC (%.1f)",
				row.Scale, row.UnifiedMs, row.PureECMs, row.PureDCMs)
		}
		if !strings.Contains(row.Paradigms, "expe") || !strings.Contains(row.Paradigms, "data") {
			t.Errorf("%s: paradigms not mixed: %s", row.Scale, row.Paradigms)
		}
		t.Logf("%s: EC=%.1f DC=%.1f unified=%.1f speedup=%.2fx (paper %.2fx)",
			row.Scale, row.PureECMs, row.PureDCMs, row.UnifiedMs, row.SpeedupEC, row.PaperSpeedup)
	}
}

// The jitter extension: per-op compute noise must hurt the synchronous
// baseline strictly more than Janus (the §3.2 async claim), and the
// penalty must grow with the amplitude.
func TestStragglerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulation sweep; skipped under -short")
	}
	res, err := Straggler()
	if err != nil {
		t.Fatal(err)
	}
	last := res.Rows[len(res.Rows)-1]
	if !(last.TutelAddedMs > last.JanusAddedMs) {
		t.Fatalf("jitter cost: tutel +%.1fms vs janus +%.1fms — async advantage missing",
			last.TutelAddedMs, last.JanusAddedMs)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].TutelAddedMs < res.Rows[i-1].TutelAddedMs-0.5 {
			t.Fatal("tutel jitter cost not monotone")
		}
	}
	t.Log("\n" + res.Render())
}

// The fault sweep degrades exactly inside the kill window and recovers
// after it — never aborting a step.
func TestFaultSweepDegradationWindow(t *testing.T) {
	res, err := FaultSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		inWindow := row.Step >= res.KillFrom && row.Step < res.KillTo
		if row.Degraded != inWindow {
			t.Errorf("step %d: degraded=%v, want %v", row.Step, row.Degraded, inWindow)
		}
		if inWindow {
			if row.StaleFetches == 0 {
				t.Errorf("step %d: no stale fetches during outage", row.Step)
			}
			if row.Retries == 0 {
				t.Errorf("step %d: no retries during outage", row.Step)
			}
		} else if row.StaleFetches != 0 || row.DroppedGrads != 0 {
			t.Errorf("step %d: degradation outside the kill window: %+v", row.Step, row)
		}
	}
	if res.DegradedSteps != res.ECStalledSteps {
		t.Errorf("degraded %d steps but EC would stall %d", res.DegradedSteps, res.ECStalledSteps)
	}
	if !strings.Contains(res.Render(), "STALLED") {
		t.Error("render missing the expert-centric stall verdict")
	}
	t.Log("\n" + res.Render())
}

// Every registered experiment runs end to end and renders non-empty.
func TestAllExperimentsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			out := res.Render()
			if len(out) < 40 {
				t.Fatalf("render too short:\n%s", out)
			}
		})
	}
}

func TestFailoverExperiment(t *testing.T) {
	res, err := Failover()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Detection lands within the dead-man budget of the kill.
	if res.FailoverStep == 0 || res.FailoverStep > res.KillFrom+res.DeadManSteps {
		t.Fatalf("failover at step %d, want within %d steps of the kill at %d",
			res.FailoverStep, res.DeadManSteps, res.KillFrom)
	}
	for _, row := range res.Rows {
		switch {
		case row.Step < res.KillFrom:
			if row.Degraded || row.AliveMachines != res.Machines {
				t.Errorf("healthy step %d degraded or lost a machine: %+v", row.Step, row)
			}
		case row.Step > res.FailoverStep:
			// Post-failover: survivors run at full fidelity again.
			if row.Degraded {
				t.Errorf("step %d still degraded after failover: %+v", row.Step, row)
			}
			if row.AliveMachines != res.Machines-1 {
				t.Errorf("step %d: alive=%d, want %d", row.Step, row.AliveMachines, res.Machines-1)
			}
		}
	}
	if res.RehomedExperts == 0 || res.Restores == 0 {
		t.Errorf("no rehoming/restores recorded: %+v", res)
	}
	if res.Checkpoints == 0 || res.CheckpointBytes == 0 {
		t.Errorf("no checkpoints recorded: %+v", res)
	}
	if res.PostFailoverOK == 0 {
		t.Error("no post-failover step completed at full fidelity")
	}
	out := res.Render()
	for _, frag := range []string{"STALLED", "re-homed", "restored from checkpoint"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	t.Log("\n" + out)
}

func TestPartitionExperiment(t *testing.T) {
	res, err := Partition()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != res.Steps {
		t.Fatalf("rows = %d, want %d", len(res.Rows), res.Steps)
	}
	// The headline differential: with fencing the zombie's writes leave
	// no trace — bitwise identical to the run where they never arrived —
	// and without fencing they provably corrupt the majority.
	if res.DivergedFenced != 0 {
		t.Errorf("fencing on: %d experts diverged from the single-owner reference", res.DivergedFenced)
	}
	if res.DivergedUnfenced == 0 {
		t.Error("fencing off: zombie pushes left no divergence, the control proves nothing")
	}
	if res.FenceRejections == 0 {
		t.Error("no stale-epoch requests fenced during the partition")
	}
	if res.QuorumStalls == 0 {
		t.Error("minority never froze on lost quorum")
	}
	if res.Failovers != 1 {
		t.Errorf("failovers = %d, want exactly 1 (quorum side only)", res.Failovers)
	}
	if res.HealedStep == 0 || res.HealedStep < res.PartTo {
		t.Errorf("heal at step %d, want at/after the window end %d", res.HealedStep, res.PartTo)
	}
	for _, row := range res.Rows {
		if row.Step >= res.HealedStep && (row.AliveMachines != res.Machines || row.Partitioned != 0 || row.Degraded) {
			t.Errorf("step %d not clean after heal: %+v", row.Step, row)
		}
	}
	out := res.Render()
	for _, frag := range []string{"diverged with fencing ON", "stale-epoch", "froze"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	t.Log("\n" + out)
}

func TestReplicationExperiment(t *testing.T) {
	res, err := Replication()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != res.Steps {
		t.Fatalf("rows = %d, want %d", len(res.Rows), res.Steps)
	}
	// The headline differential: the replicated kill is lossless, the
	// unreplicated control of the same schedule is not.
	if res.MaxStaleness != 0 {
		t.Errorf("replicated run leaked staleness %d", res.MaxStaleness)
	}
	if res.ControlMaxStaleness == 0 {
		t.Error("control run shows no staleness — the differential proves nothing")
	}
	if res.Promotions != 1 || res.Diverged != 0 {
		t.Errorf("promotions=%d diverged=%d, want 1/0", res.Promotions, res.Diverged)
	}
	if res.Streams == 0 {
		t.Error("no replica streams recorded")
	}
	// Streams keep flowing after the kill (surviving owners still sync)
	// and the promotion lands exactly at the kill step.
	kill := replicationSchedule.killAt
	if res.Rows[kill-1].Promos != 1 || res.Rows[kill-2].Promos != 0 {
		t.Errorf("promotion not recorded at the kill step %d: %+v", kill, res.Rows)
	}
	if res.Rows[res.Steps-1].Streams <= res.Rows[kill-1].Streams {
		t.Error("replica streams stopped after the failover")
	}
	out := res.Render()
	for _, frag := range []string{"synchronous replication", "machine 3 killed", "lossless gate", "max staleness 0"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	t.Log("\n" + out)
}

func TestChurnExperiment(t *testing.T) {
	res, err := Churn()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != res.Steps {
		t.Fatalf("rows = %d, want %d", len(res.Rows), res.Steps)
	}
	if res.Joins != 1 || res.Migrations != 3 || res.Rollbacks != 0 {
		t.Errorf("join/migration counters = %d/%d/%d, want 1/3/0", res.Joins, res.Migrations, res.Rollbacks)
	}
	if res.Diverged != 0 {
		t.Errorf("%d experts diverged bitwise from the static twin", res.Diverged)
	}
	// The joiner must be absorbed and carry experts by the end.
	last := res.Rows[len(res.Rows)-1]
	if last.Members != res.Machines+1 || last.Alive != res.Machines+1 {
		t.Errorf("final membership %d/%d alive, want %d both", last.Members, last.Alive, res.Machines+1)
	}
	hosted := 0
	for _, o := range res.Owners {
		if o == res.Machines { // the joiner's index
			hosted++
		}
	}
	if hosted != 2 {
		t.Errorf("joiner hosts %d experts, want 2", hosted)
	}
	out := res.Render()
	for _, frag := range []string{"elastic membership", "join machine 3", "bitwise identical"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	t.Log("\n" + out)
}

func TestServingExperiment(t *testing.T) {
	res, err := Serving()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(servingSweep.mults) {
		t.Fatalf("sweep rows = %d, want %d", len(res.Rows), len(servingSweep.mults))
	}
	if res.DiffChecked == 0 {
		t.Error("differential gate checked nothing")
	}
	// The knee behaviour: past saturation the plane sheds instead of
	// collapsing, so the heaviest point both sheds a lot and keeps
	// goodput near peak (the 80% gate already ran in-run).
	last := res.Rows[len(res.Rows)-1]
	if last.Shed == 0 {
		t.Errorf("4x offered load shed nothing: %+v", last)
	}
	for _, row := range res.Rows {
		if row.P99Ms > res.DeadlineMs {
			t.Errorf("%gx p99 %.2fms over deadline", row.Mult, row.P99Ms)
		}
	}
	if res.RolledBack != 1 || res.PostFenceCanary != 0 {
		t.Errorf("canary drill: rollbacks=%d postFence=%d, want 1/0", res.RolledBack, res.PostFenceCanary)
	}
	if res.CanaryServed == 0 {
		t.Error("canary answered nothing before the rollback")
	}
	out := res.Render()
	for _, frag := range []string{"calibrated knee", "goodput/s", "auto-rollback", "bitwise"} {
		if !strings.Contains(out, frag) {
			t.Errorf("render missing %q", frag)
		}
	}
	t.Log("\n" + out)
}
