package workloads

// The spec-driven phased workload generator ("wlgen v2"). A PhasedSpec
// is a small declarative document — phases with opcode-class mixes,
// plus a schedule that sequences them — from which BuildPhased emits a
// deterministic program. The point is scenario diversity beyond the
// paper's steady kernels: PR 4 showed that phase behavior dominates
// multiplexing error, and the only phased probe was the hand-built
// PhaseShift. With a spec, any phase structure (alternating, bursty,
// ramping intensity) is a few lines of JSON away, and the per-phase
// mixes can be fit from the existing kernels and applications
// (see FitMix) instead of being hand-tuned.
//
// Determinism contract: the generated program depends only on the spec
// (including its Seed) and the scale. Each phase draws from its own RNG
// stream, derived via stats.DeriveSeed(seed, "phase", name), so editing
// one phase never perturbs another's code, and generation is
// byte-identical at any parallelism. Scale multiplies the macro trip
// count only — the static CFG is scale-invariant, like every other
// workload in the registry.
//
// docs/WORKLOADS.md is the authoring guide: the full schema reference,
// a schedule cookbook, and a worked example through record/replay
// (internal/trace) to a report table.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pmutrust/internal/isa"
	"pmutrust/internal/program"
	"pmutrust/internal/stats"
)

// PhasedSpecV is the spec schema version. Specs must carry it
// explicitly ("v": 1): the spec is an on-disk authoring surface, and a
// future field with changed semantics must not be silently reinterpreted.
const PhasedSpecV = 1

// Schedule kinds. See the cookbook in docs/WORKLOADS.md.
const (
	// ScheduleFixed runs every phase once per macro iteration at its
	// base intensity: a stationary mixture (the PhaseShift shape when
	// intensities are long).
	ScheduleFixed = "fixed"
	// ScheduleAlternate runs one phase per macro iteration, cycling
	// round-robin: phases occupy whole macro iterations, the coarsest
	// anti-stationary structure.
	ScheduleAlternate = "alternate"
	// ScheduleBurst is the fixed schedule, except one designated phase
	// multiplies its intensity every BurstEvery-th macro iteration —
	// the invitro burst mode, compiled into the CFG.
	ScheduleBurst = "burst"
	// ScheduleRamp is the fixed schedule with every phase's intensity
	// growing with the macro index (intensity + macroIdx>>RampShift) —
	// the invitro RPS-sweep mode.
	ScheduleRamp = "ramp"
)

// MixSpec weights the instruction classes a phase body draws from.
// Weights are relative (they need not sum to 1; FitMix normalizes).
// Each class maps to a fixed latency band of the ISA, so a mix is also
// a latency distribution: alu 1 cycle, mul 3, div long-latency integer,
// fp 3-5, fpdiv the longest, load the L1 band, store 2 uops, branch a
// data-driven conditional diamond (emitted as test + two arms + join).
type MixSpec struct {
	ALU    float64 `json:"alu,omitempty"`
	Mul    float64 `json:"mul,omitempty"`
	Div    float64 `json:"div,omitempty"`
	FP     float64 `json:"fp,omitempty"`
	FPDiv  float64 `json:"fpdiv,omitempty"`
	Load   float64 `json:"load,omitempty"`
	Store  float64 `json:"store,omitempty"`
	Branch float64 `json:"branch,omitempty"`
}

// total returns the weight mass.
func (m MixSpec) total() float64 {
	return m.ALU + m.Mul + m.Div + m.FP + m.FPDiv + m.Load + m.Store + m.Branch
}

// PhaseSpec is one phase: a named instruction mix with a size and a
// base intensity. Exactly one of Mix and From must be set; From fits
// the mix from a registered workload's static code (FitMix).
type PhaseSpec struct {
	// Name labels the phase; it becomes the phase function's name
	// ("phase_<name>") in profiles and disassembly.
	Name string `json:"name"`
	// Mix is the explicit instruction-class mix.
	Mix *MixSpec `json:"mix,omitempty"`
	// From names a registered workload whose static opcode-class
	// distribution becomes this phase's mix.
	From string `json:"from,omitempty"`
	// Instrs is how many mix draws the phase loop body makes
	// (default 8). A draw emits 1-3 instructions depending on class,
	// so the body is roughly 1-3x this size.
	Instrs int `json:"instrs,omitempty"`
	// Intensity is the phase loop's base trip count per activation
	// (default 32). The schedule may raise it (burst, ramp) at run
	// time — intensity is a register, not unrolled code.
	Intensity int `json:"intensity,omitempty"`
}

// ScheduleSpec sequences the phases.
type ScheduleSpec struct {
	// Kind is one of fixed, alternate, burst, ramp (default fixed).
	Kind string `json:"kind,omitempty"`
	// BurstEvery (burst only): the burst phase fires every BurstEvery-th
	// macro iteration. Must be a power of two (compiled to a mask test).
	// Default 8.
	BurstEvery int `json:"burst_every,omitempty"`
	// BurstFactor (burst only): intensity multiplier during a burst.
	// Default 8.
	BurstFactor int `json:"burst_factor,omitempty"`
	// BurstPhase (burst only) names the bursting phase; default is the
	// last phase.
	BurstPhase string `json:"burst_phase,omitempty"`
	// RampShift (ramp only): every phase's intensity is
	// base + macroIdx>>RampShift, so smaller shifts ramp faster.
	// Default 5.
	RampShift int `json:"ramp_shift,omitempty"`
}

// PhasedSpec is the declarative workload document. Parse with
// ParsePhasedSpec (strict: unknown fields are errors), build with
// BuildPhased.
type PhasedSpec struct {
	// V is the spec schema version; must be PhasedSpecV.
	V int `json:"v"`
	// Name names the generated program (and its table rows).
	Name string `json:"name"`
	// Seed makes generation deterministic; the per-phase streams derive
	// from it via stats.DeriveSeed.
	Seed uint64 `json:"seed"`
	// MacroIters is the base macro loop trip count (default 200),
	// multiplied by the build scale like every workload's outer loop.
	MacroIters int `json:"macro_iters,omitempty"`
	// MemWords sizes the data memory the load/store classes walk
	// (default 4096 words).
	MemWords int `json:"mem_words,omitempty"`
	// Schedule sequences the phases.
	Schedule ScheduleSpec `json:"schedule,omitempty"`
	// Phases are the phase definitions, in driver order.
	Phases []PhaseSpec `json:"phases"`
}

// Defaults applied by normalize(); exported so docs and tests state
// them once.
const (
	DefaultPhaseInstrs    = 8
	DefaultPhaseIntensity = 32
	DefaultMacroIters     = 200
	DefaultMemWords       = 4096
	DefaultBurstEvery     = 8
	DefaultBurstFactor    = 8
	DefaultRampShift      = 5
)

// normalize returns a copy with defaults filled in. Validate works on
// the normalized copy, and Fingerprint hashes it, so an explicit
// "intensity": 32 and an omitted one are the same spec.
func (s PhasedSpec) normalize() PhasedSpec {
	out := s
	out.Phases = append([]PhaseSpec(nil), s.Phases...)
	if out.MacroIters == 0 {
		out.MacroIters = DefaultMacroIters
	}
	if out.MemWords == 0 {
		out.MemWords = DefaultMemWords
	}
	if out.Schedule.Kind == "" {
		out.Schedule.Kind = ScheduleFixed
	}
	if out.Schedule.Kind == ScheduleBurst {
		if out.Schedule.BurstEvery == 0 {
			out.Schedule.BurstEvery = DefaultBurstEvery
		}
		if out.Schedule.BurstFactor == 0 {
			out.Schedule.BurstFactor = DefaultBurstFactor
		}
		if out.Schedule.BurstPhase == "" && len(out.Phases) > 0 {
			out.Schedule.BurstPhase = out.Phases[len(out.Phases)-1].Name
		}
	}
	if out.Schedule.Kind == ScheduleRamp && out.Schedule.RampShift == 0 {
		out.Schedule.RampShift = DefaultRampShift
	}
	for i := range out.Phases {
		if out.Phases[i].Instrs == 0 {
			out.Phases[i].Instrs = DefaultPhaseInstrs
		}
		if out.Phases[i].Intensity == 0 {
			out.Phases[i].Intensity = DefaultPhaseIntensity
		}
	}
	return out
}

// Validate checks the normalized spec and reports the first problem.
// Every error string below is part of the documented authoring surface
// (docs/WORKLOADS.md lists them verbatim).
func (s PhasedSpec) Validate() error {
	n := s.normalize()
	if n.V != PhasedSpecV {
		return fmt.Errorf(`workloads: spec version %d, want "v": %d`, n.V, PhasedSpecV)
	}
	if n.Name == "" {
		return fmt.Errorf("workloads: spec needs a name")
	}
	if strings.HasPrefix(n.Name, "mux-") {
		// The report layer routes records by the "mux-" method prefix;
		// a workload named like that would be confusing in stores.
		return fmt.Errorf("workloads: spec name %q: the mux- prefix is reserved", n.Name)
	}
	if len(n.Phases) == 0 {
		return fmt.Errorf("workloads: spec %q has no phases", n.Name)
	}
	if n.MacroIters < 1 {
		return fmt.Errorf("workloads: spec %q: macro_iters must be >= 1", n.Name)
	}
	if n.MemWords < 1 {
		return fmt.Errorf("workloads: spec %q: mem_words must be >= 1", n.Name)
	}
	seen := make(map[string]bool)
	for i, ph := range n.Phases {
		if ph.Name == "" {
			return fmt.Errorf("workloads: spec %q: phase %d needs a name", n.Name, i)
		}
		if seen[ph.Name] {
			return fmt.Errorf("workloads: spec %q: duplicate phase %q", n.Name, ph.Name)
		}
		seen[ph.Name] = true
		if (ph.Mix == nil) == (ph.From == "") {
			return fmt.Errorf("workloads: spec %q: phase %q needs exactly one of mix and from", n.Name, ph.Name)
		}
		if ph.From != "" {
			src, err := ByName(ph.From)
			if err != nil {
				return fmt.Errorf("workloads: spec %q: phase %q: from: %w", n.Name, ph.Name, err)
			}
			if src.Kind == Phased {
				return fmt.Errorf("workloads: spec %q: phase %q: from %q: fitting from a phased workload is not supported (fit from kernels or apps)", n.Name, ph.Name, ph.From)
			}
		}
		if ph.Mix != nil {
			m := *ph.Mix
			for _, w := range []float64{m.ALU, m.Mul, m.Div, m.FP, m.FPDiv, m.Load, m.Store, m.Branch} {
				if w < 0 {
					return fmt.Errorf("workloads: spec %q: phase %q: negative mix weight", n.Name, ph.Name)
				}
			}
			if m.total() <= 0 {
				return fmt.Errorf("workloads: spec %q: phase %q: mix weights sum to zero", n.Name, ph.Name)
			}
		}
		if ph.Instrs < 1 || ph.Instrs > 256 {
			return fmt.Errorf("workloads: spec %q: phase %q: instrs must be in [1, 256]", n.Name, ph.Name)
		}
		if ph.Intensity < 1 {
			return fmt.Errorf("workloads: spec %q: phase %q: intensity must be >= 1", n.Name, ph.Name)
		}
	}
	switch n.Schedule.Kind {
	case ScheduleFixed, ScheduleAlternate, ScheduleRamp:
	case ScheduleBurst:
		if e := n.Schedule.BurstEvery; e < 2 || e&(e-1) != 0 {
			return fmt.Errorf("workloads: spec %q: burst_every must be a power of two >= 2", n.Name)
		}
		if n.Schedule.BurstFactor < 2 {
			return fmt.Errorf("workloads: spec %q: burst_factor must be >= 2", n.Name)
		}
		if !seen[n.Schedule.BurstPhase] {
			return fmt.Errorf("workloads: spec %q: burst_phase %q is not a phase", n.Name, n.Schedule.BurstPhase)
		}
	default:
		return fmt.Errorf("workloads: spec %q: unknown schedule kind %q (want fixed, alternate, burst or ramp)", n.Name, n.Schedule.Kind)
	}
	if n.Schedule.Kind == ScheduleRamp {
		if sh := n.Schedule.RampShift; sh < 1 || sh > 62 {
			return fmt.Errorf("workloads: spec %q: ramp_shift must be in [1, 62]", n.Name)
		}
	}
	return nil
}

// ParsePhasedSpec decodes a JSON spec document. Decoding is strict —
// an unknown field is an error, not a silent no-op, and so is anything
// but whitespace after the spec object (a second, concatenated spec
// would otherwise be silently dropped) — and the result is validated.
func ParsePhasedSpec(data []byte) (PhasedSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s PhasedSpec
	if err := dec.Decode(&s); err != nil {
		return PhasedSpec{}, fmt.Errorf("workloads: parse spec: %w", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return PhasedSpec{}, fmt.Errorf("workloads: parse spec: trailing data after the spec object (byte %d)", end)
	}
	if err := s.Validate(); err != nil {
		return PhasedSpec{}, err
	}
	return s, nil
}

// LoadPhasedSpec reads and parses a spec file.
func LoadPhasedSpec(path string) (PhasedSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return PhasedSpec{}, fmt.Errorf("workloads: %w", err)
	}
	s, err := ParsePhasedSpec(data)
	if err != nil {
		return PhasedSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Fingerprint content-addresses the spec: the stats.Fingerprint of the
// normalized spec's canonical JSON under its seed. Equal fingerprints
// mean equal generated programs at equal scale; trace records carry it
// so a replayed program can be traced back to its spec.
func (s PhasedSpec) Fingerprint() string {
	n := s.normalize()
	canon, err := json.Marshal(n)
	if err != nil {
		// A PhasedSpec is plain data; Marshal cannot fail on one.
		panic(fmt.Sprintf("workloads: marshal spec: %v", err))
	}
	return stats.Fingerprint(n.Seed, string(canon))
}

// WorkloadSpec wraps the spec as a registry-shaped workload (Kind
// Phased) so custom specs flow through the same sweep, store and report
// machinery as registered workloads. The spec must be valid.
func (s PhasedSpec) WorkloadSpec() (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	desc := fmt.Sprintf("Spec-generated phased workload (%s schedule, %d phases, spec %s).",
		s.normalize().Schedule.Kind, len(s.Phases), s.Fingerprint())
	return Spec{
		Name:        s.Name,
		Kind:        Phased,
		Description: desc,
		Build: func(scale float64) *program.Program {
			return MustBuildPhased(s, scale)
		},
	}, nil
}

// Registers the phased driver adds to the shared conventions: r7 is the
// macro up-counter (schedules that depend on elapsed time — burst, ramp
// — read it; rN stays the countdown latch like every other workload).
const rUp = isa.Reg(7)

// BuildPhased generates the program for a valid spec. Scale multiplies
// the macro trip count only, like every registered workload, so the
// static CFG is identical at every scale.
func BuildPhased(s PhasedSpec, scale float64) (*program.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := s.normalize()
	macro := iters(n.MacroIters, scale)

	// Resolve every phase mix up front (From fits are deterministic:
	// static code of a registered workload).
	mixes := make([]MixSpec, len(n.Phases))
	for i, ph := range n.Phases {
		if ph.Mix != nil {
			mixes[i] = *ph.Mix
		} else {
			m, err := FitMixFromWorkload(ph.From)
			if err != nil {
				return nil, err
			}
			mixes[i] = m
		}
	}

	b := program.NewBuilder(n.Name)
	b.SetMemWords(n.MemWords)
	buildPhasedMain(b, n, macro)
	for i, ph := range n.Phases {
		emitPhaseFunc(b, n.Seed, ph, mixes[i])
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workloads: spec %q: %w", n.Name, err)
	}
	return p, nil
}

// MustBuildPhased is BuildPhased for specs already validated (registry
// Build closures); it panics on error.
func MustBuildPhased(s PhasedSpec, scale float64) *program.Program {
	p, err := BuildPhased(s, scale)
	if err != nil {
		panic(err)
	}
	return p
}

// buildPhasedMain emits the driver: init, one "slot" per scheduled
// phase per macro iteration (the slot computes the phase's intensity
// into rI and calls it), latch, exit.
func buildPhasedMain(b *program.Builder, n PhasedSpec, macro int64) {
	f := b.Func("main")
	entry := f.Block("entry")
	entry.Movi(rN, macro)
	entry.Movi(rUp, 0)
	entry.Movi(rGA, 0x5bd1e995)
	entry.Movi(rGB, 3)
	entry.Movi(rGC, 0x27d4eb2f)
	entry.Movi(rGD, 7)
	entry.Movi(rPtr, 0)
	entry.Movi(rIdx, 0)
	lcgInit(entry, int64(n.Seed|1))

	sched := n.Schedule
	if sched.Kind == ScheduleAlternate {
		// One phase per macro iteration, round-robin on rUp mod len.
		top := f.Block("dispatch")
		top.Movi(rVal, int64(len(n.Phases)))
		top.Rem(rT0, rUp, rVal)
		for i := range n.Phases {
			if i < len(n.Phases)-1 {
				d := f.Block(fmt.Sprintf("disp%d", i))
				d.Cmpi(rT0, int64(i))
				d.Jz(fmt.Sprintf("slot%d", i))
			} else {
				d := f.Block(fmt.Sprintf("disp%d", i))
				d.Jmp(fmt.Sprintf("slot%d", i))
			}
		}
		for i, ph := range n.Phases {
			slot := f.Block(fmt.Sprintf("slot%d", i))
			slot.Movi(rI, int64(ph.Intensity))
			slot.Call(phaseFuncName(ph.Name))
			slot.Jmp("macro_latch")
		}
	} else {
		// fixed / burst / ramp: every phase runs each macro iteration;
		// the schedule only shapes the intensity handed to it.
		first := true
		for i, ph := range n.Phases {
			label := fmt.Sprintf("slot%d", i)
			if first {
				label = "dispatch" // latch target: the first slot
				first = false
			}
			slot := f.Block(label)
			slot.Movi(rI, int64(ph.Intensity))
			switch {
			case sched.Kind == ScheduleBurst && ph.Name == sched.BurstPhase:
				slot.Movi(rVal, int64(sched.BurstEvery-1))
				slot.And(rT0, rUp, rVal)
				slot.Cmpi(rT0, 0)
				slot.Jnz(fmt.Sprintf("call%d", i))
				burst := f.Block(fmt.Sprintf("burst%d", i))
				burst.Movi(rI, int64(ph.Intensity*sched.BurstFactor))
				call := f.Block(fmt.Sprintf("call%d", i))
				call.Call(phaseFuncName(ph.Name))
				continue
			case sched.Kind == ScheduleRamp:
				slot.Shr(rT0, rUp, int64(sched.RampShift))
				slot.Add(rI, rI, rT0)
			}
			slot.Call(phaseFuncName(ph.Name))
		}
	}

	latch := f.Block("macro_latch")
	latch.Addi(rUp, rUp, 1)
	latch.Addi(rN, rN, -1)
	latch.Cmpi(rN, 0)
	latch.Jnz("dispatch")

	exit := f.Block("exit")
	exit.Halt()
}

// phaseFuncName is the generated function name for a phase.
func phaseFuncName(phase string) string { return "phase_" + phase }

// emitPhaseFunc emits one phase as a counted loop whose trip count the
// driver passes in rI. The loop body is Instrs draws from the phase's
// own RNG stream over the mix classes.
func emitPhaseFunc(b *program.Builder, seed uint64, ph PhaseSpec, mix MixSpec) {
	rng := stats.NewRNG(stats.DeriveSeed(seed, "phase", ph.Name))
	fn := b.Func(phaseFuncName(ph.Name))
	cur := fn.Block("top")

	total := mix.total()
	diamonds := 0
	for i := 0; i < ph.Instrs; i++ {
		r := rng.Float64() * total
		switch {
		case r < mix.ALU:
			switch rng.Intn(4) {
			case 0:
				cur.Add(rGA, rGA, rGB)
			case 1:
				cur.Xor(rGB, rGB, rGC)
			case 2:
				cur.Addi(rGC, rGC, 0x1234)
			default:
				cur.Or(rGD, rGD, rGA)
			}
		case r < mix.ALU+mix.Mul:
			cur.Mul(rGA, rGA, rGB)
			cur.Addi(rGA, rGA, 1) // keep the product from saturating
		case r < mix.ALU+mix.Mul+mix.Div:
			cur.Div(rGB, rGA, rGD)
			cur.Addi(rGB, rGB, 0x55)
		case r < mix.ALU+mix.Mul+mix.Div+mix.FP:
			switch rng.Intn(3) {
			case 0:
				cur.Fadd(rGA, rGA, rGB)
			case 1:
				cur.Fmul(rGB, rGB, rGC)
			default:
				cur.Fma(rGC, rGA, rGB)
			}
		case r < mix.ALU+mix.Mul+mix.Div+mix.FP+mix.FPDiv:
			cur.Fdiv(rGA, rGA, rGD)
			cur.Addi(rGA, rGA, 3)
		case r < mix.ALU+mix.Mul+mix.Div+mix.FP+mix.FPDiv+mix.Load:
			cur.Addi(rIdx, rIdx, 17)
			cur.Load(rVal, rIdx, 0)
			cur.Add(rGC, rGC, rVal)
		case r < mix.ALU+mix.Mul+mix.Div+mix.FP+mix.FPDiv+mix.Load+mix.Store:
			cur.Store(rGA, rPtr, 1)
			cur.Addi(rPtr, rPtr, 7)
		default: // branch: a data-driven diamond
			d := diamonds
			diamonds++
			lcgStep(cur)
			cur.Shr(rT0, rLCG, 1+int64(d*7)%53)
			cur.And(rT0, rT0, rOne)
			cur.Cmpi(rT0, 0)
			cur.Jnz(fmt.Sprintf("d%d_else", d))

			then := fn.Block(fmt.Sprintf("d%d_then", d))
			then.Add(rGA, rGA, rGB)
			then.Jmp(fmt.Sprintf("d%d_join", d))

			els := fn.Block(fmt.Sprintf("d%d_else", d))
			els.Xor(rGA, rGA, rGC)
			els.Addi(rGA, rGA, 1)

			cur = fn.Block(fmt.Sprintf("d%d_join", d))
			cur.Or(rGB, rGB, rOne)
		}
	}

	latch := fn.Block("latch")
	latch.Addi(rI, rI, -1)
	latch.Cmpi(rI, 0)
	latch.Jnz("top")

	done := fn.Block("done")
	done.Ret()
}

// builtinPhasedSpecs defines the registered phased family: one spec per
// schedule kind (beyond ScheduleFixed, which PhaseShift embodies with
// hand-built phases). These are the "phased" experiment's rows and
// double as live documentation — docs/WORKLOADS.md quotes PhasedBurst.
func builtinPhasedSpecs() []PhasedSpec {
	memPhase := PhaseSpec{
		Name:      "mem",
		Mix:       &MixSpec{Load: 0.45, Store: 0.3, ALU: 0.25},
		Instrs:    7,
		Intensity: 90,
	}
	fpPhase := PhaseSpec{
		Name:      "fp",
		From:      "povray", // FP-heavy: fit the mix instead of hand-tuning
		Instrs:    8,
		Intensity: 60,
	}
	return []PhasedSpec{
		{
			V: PhasedSpecV, Name: "PhasedAlt", Seed: 0x70616c74, // "palt"
			MacroIters: 360,
			Schedule:   ScheduleSpec{Kind: ScheduleAlternate},
			Phases:     []PhaseSpec{memPhase, fpPhase},
		},
		{
			V: PhasedSpecV, Name: "PhasedBurst", Seed: 0x70627374, // "pbst"
			MacroIters: 320,
			Schedule:   ScheduleSpec{Kind: ScheduleBurst, BurstEvery: 8, BurstFactor: 6, BurstPhase: "fp"},
			Phases:     []PhaseSpec{memPhase, fpPhase},
		},
		{
			V: PhasedSpecV, Name: "PhasedRamp", Seed: 0x70726d70, // "prmp"
			MacroIters: 320,
			Schedule:   ScheduleSpec{Kind: ScheduleRamp, RampShift: 5},
			Phases:     []PhaseSpec{memPhase, fpPhase},
		},
	}
}

// BuiltinPhasedSpec returns the registered generated spec by name —
// tests and docs reference them without re-stating the documents.
func BuiltinPhasedSpec(name string) (PhasedSpec, error) {
	for _, s := range builtinPhasedSpecs() {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range builtinPhasedSpecs() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return PhasedSpec{}, fmt.Errorf("workloads: unknown builtin phased spec %q (have %s)", name, strings.Join(names, ", "))
}

func init() {
	descs := map[string]string{
		"PhasedAlt": "Spec-generated alternation: memory-class and povray-fit FP phases " +
			"swap every macro iteration (alternate schedule).",
		"PhasedBurst": "Spec-generated bursty load: steady mem+FP baseline with the FP phase " +
			"at 6x intensity every 8th macro iteration (burst schedule).",
		"PhasedRamp": "Spec-generated ramp: mem+FP phases whose intensity climbs with elapsed " +
			"macro iterations (ramp schedule) — the event-rate drift probe.",
	}
	for _, s := range builtinPhasedSpecs() {
		spec := s // capture per iteration
		register(Spec{
			Name:        spec.Name,
			Kind:        Phased,
			Description: descs[spec.Name],
			Build: func(scale float64) *program.Program {
				return MustBuildPhased(spec, scale)
			},
		})
	}
}
