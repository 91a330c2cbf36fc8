package workloads

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pmutrust/internal/cpu"
	"pmutrust/internal/pool"
)

// validSpec is a minimal valid two-phase spec tests mutate from.
func validSpec() PhasedSpec {
	return PhasedSpec{
		V: PhasedSpecV, Name: "T", Seed: 1,
		Phases: []PhaseSpec{
			{Name: "a", Mix: &MixSpec{ALU: 1}},
			{Name: "b", Mix: &MixSpec{FP: 1, Branch: 0.5}},
		},
	}
}

// TestSpecValidation walks the documented error surface: every rejected
// shape and the exact wording docs/WORKLOADS.md lists.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*PhasedSpec)
		want string // substring of the error; "" = valid
	}{
		{"valid", func(s *PhasedSpec) {}, ""},
		{"bad version", func(s *PhasedSpec) { s.V = 2 }, `spec version 2, want "v": 1`},
		{"no name", func(s *PhasedSpec) { s.Name = "" }, "spec needs a name"},
		{"reserved prefix", func(s *PhasedSpec) { s.Name = "mux-rr" }, "the mux- prefix is reserved"},
		{"no phases", func(s *PhasedSpec) { s.Phases = nil }, "has no phases"},
		{"negative macro", func(s *PhasedSpec) { s.MacroIters = -1 }, "macro_iters must be >= 1"},
		{"negative mem", func(s *PhasedSpec) { s.MemWords = -1 }, "mem_words must be >= 1"},
		{"unnamed phase", func(s *PhasedSpec) { s.Phases[0].Name = "" }, "phase 0 needs a name"},
		{"duplicate phase", func(s *PhasedSpec) { s.Phases[1].Name = "a" }, `duplicate phase "a"`},
		{"mix and from", func(s *PhasedSpec) { s.Phases[0].From = "povray" }, "exactly one of mix and from"},
		{"neither mix nor from", func(s *PhasedSpec) { s.Phases[0].Mix = nil }, "exactly one of mix and from"},
		{"unknown from", func(s *PhasedSpec) { s.Phases[0].Mix = nil; s.Phases[0].From = "nope" }, "unknown workload"},
		{"phased from", func(s *PhasedSpec) { s.Phases[0].Mix = nil; s.Phases[0].From = "PhaseShift" }, "fitting from a phased workload is not supported"},
		{"negative weight", func(s *PhasedSpec) { s.Phases[0].Mix = &MixSpec{ALU: -1, FP: 2} }, "negative mix weight"},
		{"zero mix", func(s *PhasedSpec) { s.Phases[0].Mix = &MixSpec{} }, "mix weights sum to zero"},
		{"instrs too big", func(s *PhasedSpec) { s.Phases[0].Instrs = 257 }, "instrs must be in [1, 256]"},
		{"negative intensity", func(s *PhasedSpec) { s.Phases[0].Intensity = -3 }, "intensity must be >= 1"},
		{"unknown schedule", func(s *PhasedSpec) { s.Schedule.Kind = "spiky" }, "unknown schedule kind"},
		{"burst not power of two", func(s *PhasedSpec) {
			s.Schedule = ScheduleSpec{Kind: ScheduleBurst, BurstEvery: 6}
		}, "burst_every must be a power of two >= 2"},
		{"burst factor one", func(s *PhasedSpec) {
			s.Schedule = ScheduleSpec{Kind: ScheduleBurst, BurstFactor: 1}
		}, "burst_factor must be >= 2"},
		{"burst unknown phase", func(s *PhasedSpec) {
			s.Schedule = ScheduleSpec{Kind: ScheduleBurst, BurstPhase: "zz"}
		}, `burst_phase "zz" is not a phase`},
		{"ramp shift too big", func(s *PhasedSpec) {
			s.Schedule = ScheduleSpec{Kind: ScheduleRamp, RampShift: 63}
		}, "ramp_shift must be in [1, 62]"},
	}
	for _, tc := range cases {
		s := validSpec()
		tc.mut(&s)
		err := s.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestParseStrict: unknown fields are authoring mistakes, not no-ops.
func TestParseStrict(t *testing.T) {
	if _, err := ParsePhasedSpec([]byte(`{"v":1,"name":"X","phasez":[]}`)); err == nil ||
		!strings.Contains(err.Error(), "phasez") {
		t.Errorf("unknown field accepted: %v", err)
	}
	if _, err := LoadPhasedSpec("/nonexistent/spec.json"); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestParseRejectsTrailingData: a spec document is one object. Garbage,
// stray closers or a second concatenated spec after it are errors, not
// silently dropped; trailing whitespace is fine.
func TestParseRejectsTrailingData(t *testing.T) {
	doc, err := os.ReadFile("../../docs/examples/phased-burst.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePhasedSpec(slices.Concat(doc, []byte(" \t\r\n"))); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	for _, tail := range []string{"garbage", "]]]", `{"v":2}`, "\n" + string(doc)} {
		_, err := ParsePhasedSpec(slices.Concat(doc, []byte(tail)))
		if err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("spec followed by %q: err = %v, want a trailing-data error", tail, err)
		}
	}
}

// FuzzParsePhasedSpec: any input either fails to parse, or parses to a
// spec whose JSON encoding parses back to a spec with the same
// fingerprint — the encoding a saved spec file holds. Nothing panics.
// The seeds are the worked example and the built-in specs.
func FuzzParsePhasedSpec(f *testing.F) {
	doc, err := os.ReadFile("../../docs/examples/phased-burst.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	for _, s := range builtinPhasedSpecs() {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParsePhasedSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal a parsed spec: %v", err)
		}
		back, err := ParsePhasedSpec(enc)
		if err != nil {
			t.Fatalf("re-parse %s: %v", enc, err)
		}
		if back.Fingerprint() != s.Fingerprint() {
			t.Fatalf("fingerprint %s after the round trip, %s before", back.Fingerprint(), s.Fingerprint())
		}
	})
}

// TestFingerprintNormalization: defaults spelled out and defaults
// omitted are the same spec — same fingerprint — while any semantic
// change (seed, weights, schedule) moves it. The builtin fingerprints
// are pinned: they appear in trace files and store provenance, so
// drifting them silently is a compatibility break.
func TestFingerprintNormalization(t *testing.T) {
	implicit := validSpec()
	explicit := validSpec()
	explicit.MacroIters = DefaultMacroIters
	explicit.MemWords = DefaultMemWords
	explicit.Schedule.Kind = ScheduleFixed
	for i := range explicit.Phases {
		explicit.Phases[i].Instrs = DefaultPhaseInstrs
		explicit.Phases[i].Intensity = DefaultPhaseIntensity
	}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Error("explicit defaults changed the fingerprint")
	}
	changed := validSpec()
	changed.Seed = 2
	if changed.Fingerprint() == implicit.Fingerprint() {
		t.Error("seed change did not move the fingerprint")
	}

	pinned := map[string]string{
		"PhasedAlt":   "bedaacb2b0247d23",
		"PhasedBurst": "33eb9005f7348318",
		"PhasedRamp":  "23f1760f0029bc43",
	}
	for name, want := range pinned {
		s, err := BuiltinPhasedSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, want pinned %s (breaks trace/store provenance)", name, got, want)
		}
	}
	if _, err := BuiltinPhasedSpec("nope"); err == nil {
		t.Error("unknown builtin spec accepted")
	}
}

// TestBuildDeterministicAnyParallelism: the same spec built concurrently
// on many workers is bit-identical to a serial build — generation state
// is all spec-derived, nothing ambient.
func TestBuildDeterministicAnyParallelism(t *testing.T) {
	for _, name := range []string{"PhasedAlt", "PhasedBurst", "PhasedRamp"} {
		spec, err := BuiltinPhasedSpec(name)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := BuildPhased(spec, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		const n = 16
		progs := make([]interface{}, n)
		err = pool.ForEach(n, 8, 0, func(i int) error {
			p, err := BuildPhased(spec, 0.1)
			progs[i] = p
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, pi := range progs {
			if !reflect.DeepEqual(pi, serial) {
				t.Fatalf("%s: parallel build %d differs from serial build", name, i)
			}
		}
	}
}

// TestScaleChangesTripCountOnly: like every registered workload, scale
// must not touch the static CFG.
func TestScaleChangesTripCountOnly(t *testing.T) {
	spec, err := BuiltinPhasedSpec("PhasedBurst")
	if err != nil {
		t.Fatal(err)
	}
	small, err := BuildPhased(spec, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildPhased(spec, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Code) != len(big.Code) {
		t.Fatalf("scale changed static code size: %d vs %d", len(small.Code), len(big.Code))
	}
	diff := 0
	for i := range small.Code {
		if small.Code[i] != big.Code[i] {
			diff++
		}
	}
	// Exactly one instruction may differ: the macro trip-count Movi.
	if diff != 1 {
		t.Errorf("%d instructions differ across scales, want exactly 1 (the macro Movi)", diff)
	}
}

// TestPhasedWorkloadsRunAndHalt executes each generated builtin end to
// end: valid programs that terminate with live branch behavior.
func TestPhasedWorkloadsRunAndHalt(t *testing.T) {
	for _, s := range PhasedFamily() {
		p := s.Build(0.05)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		res, err := cpu.RunFast(p, cpu.DefaultConfig(), cpu.NopMonitor{}, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if res.Instructions == 0 || res.CondBranches == 0 {
			t.Errorf("%s: degenerate run: %+v", s.Name, res)
		}
	}
}

// TestPhasedFamilyRegistered: the registry gained exactly the phased
// family and the paper's evaluation set is untouched.
func TestPhasedFamilyRegistered(t *testing.T) {
	want := map[string]bool{"PhaseShift": true, "PhasedAlt": true, "PhasedBurst": true, "PhasedRamp": true}
	fam := PhasedFamily()
	if len(fam) != len(want) {
		t.Fatalf("PhasedFamily has %d entries, want %d: %v", len(fam), len(want), fam)
	}
	for _, s := range fam {
		if !want[s.Name] {
			t.Errorf("unexpected phased workload %s", s.Name)
		}
		if s.Kind != Phased || s.Kind.String() != "phased" {
			t.Errorf("%s: wrong kind %v (%s)", s.Name, s.Kind, s.Kind)
		}
	}
	if n := len(Kernels()); n != 4 {
		t.Errorf("Kernels() has %d entries, want 4 (paper Table 1 set)", n)
	}
}

// TestFitMix pins the fit's contract: normalized to mass 1, classes land
// where the ISA says, and a spec can round through WorkloadSpec.
func TestFitMix(t *testing.T) {
	m, err := FitMixFromWorkload("povray")
	if err != nil {
		t.Fatal(err)
	}
	if tot := m.total(); tot < 0.999 || tot > 1.001 {
		t.Errorf("fit mass %v, want 1", tot)
	}
	if m.FP == 0 || m.Branch == 0 {
		t.Errorf("povray fit missing FP or branches: %+v", m)
	}
	if _, err := FitMixFromWorkload("PhasedAlt"); err == nil {
		t.Error("fit from a phased workload accepted")
	}

	ws, err := validSpec().WorkloadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if ws.Kind != Phased || ws.Build == nil || !strings.Contains(ws.Description, "fixed") {
		t.Errorf("WorkloadSpec: %+v", ws)
	}
	bad := validSpec()
	bad.Name = ""
	if _, err := bad.WorkloadSpec(); err == nil {
		t.Error("WorkloadSpec accepted an invalid spec")
	}
}

// TestSpecJSONRoundTrip: a spec survives marshal/parse — what saving an
// authored spec file does.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec, err := BuiltinPhasedSpec("PhasedBurst")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePhasedSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Errorf("round trip changed the spec:\n%+v\nvs\n%+v", back, spec)
	}
	if back.Fingerprint() != spec.Fingerprint() {
		t.Error("round trip changed the fingerprint")
	}
}
