package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"pmutrust/internal/machine"
	"pmutrust/internal/results"
	"pmutrust/internal/sampling"
	"pmutrust/internal/stats"
	"pmutrust/internal/workloads"
)

// TestGroupedRecordsEqualPerCell: the cell path measures the misses of
// one (workload, machine) as one group sharing executions, and its
// records must equal records built from unshared executions — one
// MeasureOnce per cell and repeat seed, aggregated by hand — under the
// fast engine and both engines, at parallel 1 and N, cold and warm. Two
// repeats of every method make 14 members per supported group, more
// than the 8 one execution takes at period 2000, so groups also split
// across executions.
func TestGroupedRecordsEqualPerCell(t *testing.T) {
	scale := Scale{Name: "grouped", Workload: 0.1, PeriodBase: 2000, Repeats: 2}
	var specs []workloads.Spec
	for _, name := range []string{"LatencyBiased", "omnetpp"} {
		s, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	g := Grid{Workloads: specs, Machines: machine.All(), Methods: sampling.Registry()}
	cells := g.Cells()

	ref := NewRunner(scale, 7)
	if n := ref.sharedMembers(); n != 8 {
		t.Fatalf("sharedMembers at period 2000 = %d, want 8", n)
	}
	misses := make([]int, len(cells))
	for i := range misses {
		misses[i] = i
	}
	if n := len(groups[Measurement](cells, misses)); n != len(specs)*len(g.Machines) {
		t.Fatalf("a cold grid forms %d groups, want one per (workload, machine): %d", n, len(specs)*len(g.Machines))
	}
	want := results.NewMemory()
	for _, c := range cells {
		m := Measurement{Workload: c.Workload.Name, Machine: c.Machine.Name, Method: c.Method.Key, Err: -1}
		if _, ok := sampling.Resolve(c.Method, c.Machine); ok {
			m.Supported = true
			for rep := range scale.Repeats {
				e, run, err := ref.MeasureOnce(c.Workload, c.Machine, c.Method, ref.RepeatSeed(c.Workload, c.Machine, c.Method, rep))
				if err != nil {
					t.Fatal(err)
				}
				if rep == 0 {
					m.Samples = len(run.Samples)
				}
				m.PerRepeat = append(m.PerRepeat, e)
			}
			m.Err = stats.Mean(m.PerRepeat)
		}
		rec := c.record(m)
		rec.Identity = ref.CellIdentity(c)
		if err := want.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	wantRecs, err := json.Marshal(want.Records())
	if err != nil {
		t.Fatal(err)
	}

	for _, eng := range []sampling.EngineMode{sampling.EngineFast, sampling.EngineBoth} {
		for _, par := range []int{1, 3} {
			st := results.NewMemory()
			var cold []byte
			for _, phase := range []string{"cold", "warm"} {
				name := fmt.Sprintf("%s/parallel=%d/%s", eng, par, phase)
				r := NewRunner(scale, 7)
				r.Engine = eng
				ms, stats, err := r.SweepCached(g, st, SweepOptions{Parallel: par})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if phase == "warm" && stats.Measured != 0 {
					t.Errorf("%s: measured %d cells, want all served", name, stats.Measured)
				}
				gotRecs, err := json.Marshal(st.Records())
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotRecs, wantRecs) {
					t.Errorf("%s: grouped records differ from per-cell Measure records:\n got %s\nwant %s", name, gotRecs, wantRecs)
				}
				b, err := json.Marshal(ms)
				if err != nil {
					t.Fatal(err)
				}
				if cold == nil {
					cold = b
				} else if !bytes.Equal(b, cold) {
					t.Errorf("%s: measurements differ from the cold run's:\n got %s\nwant %s", name, b, cold)
				}
			}
		}
	}
}

// TestMeasureCellsRejectsMixedGroup: MeasureCells measures one group, so
// cells of two (workload, machine)s are refused before anything runs or
// counts.
func TestMeasureCellsRejectsMixedGroup(t *testing.T) {
	spec := workloads.Kernels()[0]
	m := sampling.Registry()[0]
	r := NewRunner(SmallScale(), 1)
	group := []Cell{{spec, machine.IvyBridge(), m}, {spec, machine.Westmere(), m}}
	if _, err := r.MeasureCells(group, nil); err == nil {
		t.Error("MeasureCells accepted cells of two machines as one group")
	}
	if s := r.StoreStats(); s.Measured != 0 {
		t.Errorf("a refused group counted %d cells as measured", s.Measured)
	}
}
