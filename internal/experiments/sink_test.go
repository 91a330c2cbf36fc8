package experiments

import (
	"testing"

	"pmutrust/internal/sampling"
	"pmutrust/internal/telemetry"
)

// TestEveryExperimentReachesSink: every collection the ablations and the
// side experiments make reaches the runner's telemetry sink — one fast
// run per returned point, plus one interpreter run per point under
// EngineBoth — and the counted runs retired instructions.
func TestEveryExperimentReachesSink(t *testing.T) {
	experiments := []struct {
		name string
		run  func(r *Runner) (points int, err error)
	}{
		{"ablate-skid", func(r *Runner) (int, error) { _, s, err := r.AblateSkid(); return len(s), err }},
		{"ablate-period", func(r *Runner) (int, error) { _, s, err := r.AblatePeriod(); return total(s), err }},
		{"ablate-lbr", func(r *Runner) (int, error) { _, s, err := r.AblateLBRDepth(); return len(s), err }},
		{"ablate-burst", func(r *Runner) (int, error) { _, s, err := r.AblateBurst(); return total(s), err }},
		{"ablate-rand", func(r *Runner) (int, error) { _, s, err := r.AblateRandAmp(); return len(s), err }},
		{"overhead", func(r *Runner) (int, error) { _, s, err := r.RunOverhead(); return total(s), err }},
		{"lbr-contention", func(r *Runner) (int, error) { _, s, err := r.RunLBRContention(); return len(s), err }},
		{"future-hw", func(r *Runner) (int, error) {
			_, res, err := r.RunFutureHW()
			if err != nil {
				return 0, err
			}
			return len(res.IvyClean) + len(res.FutureClean) + len(res.IvyContended) + len(res.FutureContended), nil
		}},
	}
	for _, mode := range []sampling.EngineMode{sampling.EngineFast, sampling.EngineBoth} {
		for _, ex := range experiments {
			t.Run(mode.String()+"/"+ex.name, func(t *testing.T) {
				r := NewRunner(Scale{Name: "tiny", Workload: 0.1, PeriodBase: 2000, Repeats: 1}, 42)
				r.Engine = mode
				r.Telemetry = &telemetry.Sink{}
				points, err := ex.run(r)
				if err != nil {
					t.Fatal(err)
				}
				eng := r.Telemetry.Snapshot("").Engine
				if full := eng.Runs[telemetry.VariantFull.String()]; full != uint64(points) {
					t.Errorf("runs.full = %d, want one per point (%d)", full, points)
				}
				wantInterp := uint64(0)
				if mode == sampling.EngineBoth {
					wantInterp = uint64(points)
				}
				if interp := eng.Runs[telemetry.VariantInterp.String()]; interp != wantInterp {
					t.Errorf("runs.interp = %d, want %d", interp, wantInterp)
				}
				if eng.StrideInstrs+eng.EventInstrs == 0 {
					t.Error("the counted runs retired no instructions")
				}
			})
		}
	}
}

// total counts the points of a keyed sweep.
func total[P any](series map[string][]P) int {
	n := 0
	for _, s := range series {
		n += len(s)
	}
	return n
}
