package exitpolicy

// controller.go closes the loop the paper leaves open: Algorithm 2 screens
// tau offline on a balanced validation set, but a deployed client sees
// whatever class mix the camera points at, and the exitdrift experiment
// shows the live exit rate sagging far below the screened figure under
// skew. Controller tunes tau online from the same label-free signals the
// decision-telemetry layer already collects (DESIGN.md §11) — windowed
// exit rate, binary-vs-main agreement, edge utilization — with three
// safeguards that make the loop provably tame:
//
//   - a hysteresis dead band: no update while the signal sits within
//     Band of Target, so a converged controller stops moving;
//   - a bounded step: one update never moves tau by more than MaxStep,
//     and overshooting the target (error sign flip) halves the working
//     bound bisection-style, so the loop cannot limit-cycle across the
//     band at full amplitude;
//   - a clamp range: tau stays inside [MinTau, MaxTau] ⊆ [0, 1] no
//     matter what the stat stream does, honouring the strict ShouldExit
//     boundary (tau = 0 exits nothing; entropy == tau never exits).
//
// The controller is a pure state machine over Observation values: no
// clocks, no goroutines. Determinism is the point — convergence is
// asserted by tests (controller_test.go drives it through the simulated
// client in sim.go; internal/bench's exitloop experiment drives it
// through a real client+edge HTTP loopback).

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Mode selects the telemetry signal a Controller drives toward Target.
type Mode string

const (
	// ModeExitRate drives the windowed local-exit rate
	// exits/(exits+offloads) to Target: the rate sags under skew → raise
	// tau (more samples exit), rate overshoots → lower it.
	ModeExitRate Mode = "exitrate"
	// ModeAgreement drives the windowed binary-vs-main agreement rate to
	// Target: agreement below target means local exits are getting less
	// trustworthy → lower tau; comfortable agreement affords more exits.
	ModeAgreement Mode = "agreement"
	// ModeUtilization drives the windowed edge-utilization share
	// offloads/(exits+offloads) to Target (a ceiling on edge load):
	// utilization above target → raise tau to shed offloads locally.
	ModeUtilization Mode = "utilization"
)

// Modes lists the supported controller modes.
func Modes() []Mode { return []Mode{ModeExitRate, ModeAgreement, ModeUtilization} }

// Config parameterizes a Controller. The zero value is not valid — Mode
// and Target are required — but every tuning knob has a default applied
// by Validate (and therefore by NewController).
type Config struct {
	// Mode selects the driven signal; required.
	Mode Mode `json:"mode"`
	// Target is the driven signal's set point, in (0, 1); required. For
	// ModeExitRate it is the exit-rate floor the screening aimed at, for
	// ModeAgreement the acceptable agreement floor, for ModeUtilization
	// the edge-utilization ceiling.
	Target float64 `json:"target"`
	// Band is the hysteresis half-width: a window whose signal lands
	// within Band of Target produces no tau update. Default 0.05.
	Band float64 `json:"band"`
	// Gain is the proportional gain: a window's raw step is
	// Gain * error before the step bound applies. Default 0.5.
	Gain float64 `json:"gain"`
	// MaxStep bounds one update's |Δtau|. Default 0.08.
	MaxStep float64 `json:"max_step"`
	// MinTau and MaxTau clamp tau; defaults 0 and 1, the full range the
	// strict exit rule supports (ShouldExit is e < tau, so MinTau = 0
	// means "exit nothing", and even MaxTau = 1 never exits a uniform
	// softmax whose entropy is exactly 1). MaxTau's zero value means 1.
	MinTau float64 `json:"min_tau"`
	MaxTau float64 `json:"max_tau"`
	// Window is the number of decided samples (judged offloads for
	// ModeAgreement) accumulated before each control evaluation.
	// Default 16.
	Window int `json:"window"`
	// InitialTau seeds the threshold when AdoptClientTau is false; it
	// must lie within [MinTau, MaxTau].
	InitialTau float64 `json:"initial_tau"`
	// AdoptClientTau starts the controller unseeded: it adopts the first
	// client-reported tau (telemetry frames carry the screened value) as
	// its starting point and ignores InitialTau. Until seeded the
	// controller accumulates but never updates, and callers should not
	// push its placeholder tau to clients.
	AdoptClientTau bool `json:"adopt_client_tau"`
}

// Validate checks cfg and returns a copy with defaults filled in. It is
// what NewController applies; callers that store a Config for later
// construction (the edge server's option does) validate eagerly so
// misconfiguration fails at construction, not first use.
func (cfg Config) Validate() (Config, error) {
	switch cfg.Mode {
	case ModeExitRate, ModeAgreement, ModeUtilization:
	default:
		return cfg, fmt.Errorf("exitpolicy: unknown controller mode %q (have %v)", cfg.Mode, Modes())
	}
	if math.IsNaN(cfg.Target) || cfg.Target <= 0 || cfg.Target >= 1 {
		return cfg, fmt.Errorf("exitpolicy: controller target %v out of (0,1)", cfg.Target)
	}
	if cfg.Band == 0 {
		cfg.Band = 0.05
	}
	if cfg.Band < 0 || cfg.Band >= 0.5 {
		return cfg, fmt.Errorf("exitpolicy: hysteresis band %v out of [0, 0.5)", cfg.Band)
	}
	if cfg.Gain == 0 {
		cfg.Gain = 0.5
	}
	if cfg.Gain < 0 || math.IsNaN(cfg.Gain) {
		return cfg, fmt.Errorf("exitpolicy: negative controller gain %v", cfg.Gain)
	}
	if cfg.MaxStep == 0 {
		cfg.MaxStep = 0.08
	}
	if cfg.MaxStep < 0 || cfg.MaxStep > 1 || math.IsNaN(cfg.MaxStep) {
		return cfg, fmt.Errorf("exitpolicy: max step %v out of (0,1]", cfg.MaxStep)
	}
	if cfg.MaxTau == 0 {
		cfg.MaxTau = 1
	}
	if cfg.MinTau < 0 || cfg.MaxTau > 1 || cfg.MinTau >= cfg.MaxTau ||
		math.IsNaN(cfg.MinTau) || math.IsNaN(cfg.MaxTau) {
		return cfg, fmt.Errorf("exitpolicy: tau clamp range [%v, %v] invalid (want 0 <= min < max <= 1)",
			cfg.MinTau, cfg.MaxTau)
	}
	if cfg.Window == 0 {
		cfg.Window = 16
	}
	if cfg.Window < 1 {
		return cfg, fmt.Errorf("exitpolicy: controller window %d < 1", cfg.Window)
	}
	if !cfg.AdoptClientTau {
		if math.IsNaN(cfg.InitialTau) || cfg.InitialTau < cfg.MinTau || cfg.InitialTau > cfg.MaxTau {
			return cfg, fmt.Errorf("exitpolicy: initial tau %v outside clamp range [%v, %v]",
				cfg.InitialTau, cfg.MinTau, cfg.MaxTau)
		}
	}
	return cfg, nil
}

// Observation is one decided telemetry report, as the edge sees it: a
// successful offload of Offloaded samples whose frame piggybacked
// LocalExits client-side exits, plus (when Judged) the binary-vs-main
// agreement verdict of the frame's first sample. Negative counts are
// ignored defensively — the wire layer already rejects them, but the
// controller must stay sane under any stat stream.
type Observation struct {
	LocalExits int
	Offloaded  int
	Agree      bool
	Judged     bool
}

// Controller tunes tau online. Tau reads are lock-free (an atomic load,
// safe on any request path); Observe serializes on an internal mutex,
// which amortizes to a few atomic-scale operations per request — the
// steady-state cost is charged to the same <2%-of-forward budget as the
// rest of the telemetry layer (internal/edge's TestTracingOverheadBudget).
type Controller struct {
	cfg Config

	tauBits atomic.Uint64 // float64 bits of the current tau

	mu     sync.Mutex
	seeded bool
	// current-window accumulators
	exits, offloads int64
	agree, judged   int64
	// control history
	windows, updates int64
	lastSignal       float64
	lastErr          float64
	lastStep         float64
	lastDir          int     // sign of the last out-of-band error
	sameStreak       int     // consecutive out-of-band windows with that sign
	stepBound        float64 // working step bound in (0, MaxStep]
}

// NewController validates cfg and returns a controller seeded at
// cfg.InitialTau (or unseeded, awaiting Seed, when cfg.AdoptClientTau).
func NewController(cfg Config) (*Controller, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, stepBound: cfg.MaxStep}
	tau := cfg.InitialTau
	if cfg.AdoptClientTau {
		// Placeholder until Seed: the clamp midpoint, never pushed to
		// clients (State reports Seeded false).
		tau = (cfg.MinTau + cfg.MaxTau) / 2
	} else {
		c.seeded = true
	}
	c.tauBits.Store(math.Float64bits(tau))
	return c, nil
}

// Config returns the validated configuration the controller runs with.
func (c *Controller) Config() Config { return c.cfg }

// Tau returns the current threshold. Lock-free; safe from request paths.
func (c *Controller) Tau() float64 {
	return math.Float64frombits(c.tauBits.Load())
}

// Seeded reports whether the controller has a real starting point (either
// a configured InitialTau or an adopted client tau).
func (c *Controller) Seeded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seeded
}

// Seed adopts tau (clamped to the configured range) as the starting
// threshold if the controller is still unseeded, and reports whether it
// did. Later calls are no-ops: the first client to report wins, and from
// then on the control loop owns the value.
func (c *Controller) Seed(tau float64) bool {
	if math.IsNaN(tau) {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seeded {
		return false
	}
	c.seeded = true
	c.tauBits.Store(math.Float64bits(c.clamp(tau)))
	return true
}

func (c *Controller) clamp(tau float64) float64 {
	return math.Min(c.cfg.MaxTau, math.Max(c.cfg.MinTau, tau))
}

// Observe ingests one report and returns the (possibly updated) tau and
// whether this call changed it. Updates fire only on window boundaries:
// once Window decided samples (judged verdicts for ModeAgreement) have
// accumulated, the windowed signal is compared against Target, the
// hysteresis band is applied, and a bounded proportional step moves tau.
func (c *Controller) Observe(o Observation) (tau float64, updated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if o.LocalExits > 0 {
		c.exits += int64(o.LocalExits)
	}
	if o.Offloaded > 0 {
		c.offloads += int64(o.Offloaded)
	}
	if o.Judged {
		c.judged++
		if o.Agree {
			c.agree++
		}
	}
	tau = math.Float64frombits(c.tauBits.Load())
	if !c.seeded || !c.windowFull() {
		return tau, false
	}
	signal, ok := c.signal()
	c.exits, c.offloads, c.agree, c.judged = 0, 0, 0, 0
	if !ok {
		return tau, false
	}
	c.windows++
	c.lastSignal = signal
	err := c.errorFor(signal)
	c.lastErr = err
	if math.Abs(err) <= c.cfg.Band {
		// Hysteresis: inside the dead band the controller holds still —
		// this is what "converged" means, and what the no-oscillation
		// tests pin.
		c.lastStep = 0
		return tau, false
	}
	dir := 1
	if err < 0 {
		dir = -1
	}
	if c.lastDir != 0 {
		if dir != c.lastDir {
			// Overshoot: the previous step crossed the target, so halve
			// the working bound (bisection) down to a floor that keeps
			// the loop responsive to later drifts.
			c.stepBound = math.Max(c.stepBound/2, c.cfg.MaxStep/16)
			c.sameStreak = 0
		} else {
			// Persistent error on one side: restore authority so a real
			// regime change is tracked at full speed again — but only
			// after a streak, so one same-sign window between overshoots
			// (common when the signal is quantized by a small sample
			// population) cannot undo the bisection and re-arm a
			// full-amplitude limit cycle.
			c.sameStreak++
			if c.sameStreak >= 2 {
				c.stepBound = math.Min(c.stepBound*2, c.cfg.MaxStep)
			}
		}
	}
	c.lastDir = dir
	step := c.cfg.Gain * err
	if step > c.stepBound {
		step = c.stepBound
	} else if step < -c.stepBound {
		step = -c.stepBound
	}
	next := c.clamp(tau + step)
	c.lastStep = next - tau
	if next == tau {
		return tau, false
	}
	c.updates++
	c.tauBits.Store(math.Float64bits(next))
	return next, true
}

// windowFull reports whether the current window has enough data to
// evaluate. ModeAgreement windows on judged verdicts (its signal's
// denominator); the rate modes window on decided samples.
func (c *Controller) windowFull() bool {
	if c.cfg.Mode == ModeAgreement {
		return c.judged >= int64(c.cfg.Window)
	}
	return c.exits+c.offloads >= int64(c.cfg.Window)
}

// signal computes the windowed driven signal; ok is false when the window
// carried no usable denominator (cannot happen for full windows, kept for
// defensiveness).
func (c *Controller) signal() (float64, bool) {
	switch c.cfg.Mode {
	case ModeAgreement:
		if c.judged == 0 {
			return 0, false
		}
		return float64(c.agree) / float64(c.judged), true
	default:
		total := c.exits + c.offloads
		if total == 0 {
			return 0, false
		}
		rate := float64(c.exits) / float64(total)
		if c.cfg.Mode == ModeUtilization {
			return 1 - rate, true
		}
		return rate, true
	}
}

// errorFor maps a signal to the signed control error, oriented so that
// tau += Gain*error moves the system toward Target in every mode:
// raising tau always raises the exit rate (strict e < tau), which raises
// exit-rate, lowers utilization, and spends agreement headroom.
func (c *Controller) errorFor(signal float64) float64 {
	switch c.cfg.Mode {
	case ModeExitRate:
		return c.cfg.Target - signal // rate below target → raise tau
	case ModeAgreement:
		return signal - c.cfg.Target // agreement above target → raise tau
	default: // ModeUtilization
		return signal - c.cfg.Target // utilization above ceiling → raise tau
	}
}

// State is a JSON-ready snapshot of a Controller, surfaced by the edge
// server's /v1/stats next to the decision telemetry it is driven by.
type State struct {
	Mode    Mode    `json:"mode"`
	Target  float64 `json:"target"`
	Band    float64 `json:"band"`
	MaxStep float64 `json:"max_step"`
	MinTau  float64 `json:"min_tau"`
	MaxTau  float64 `json:"max_tau"`
	Window  int     `json:"window"`
	// Tau is the current threshold; meaningful only once Seeded.
	Tau    float64 `json:"tau"`
	Seeded bool    `json:"seeded"`
	// Windows counts completed control evaluations, Updates the subset
	// that changed tau (hysteresis and clamping absorb the rest).
	Windows int64 `json:"windows"`
	Updates int64 `json:"updates"`
	// LastSignal/LastError/LastStep describe the most recent completed
	// window; StepBound is the current attenuated step authority.
	LastSignal float64 `json:"last_signal"`
	LastError  float64 `json:"last_error"`
	LastStep   float64 `json:"last_step"`
	StepBound  float64 `json:"step_bound"`
	// Pending counts samples (judged verdicts for ModeAgreement)
	// accumulated toward the next evaluation.
	Pending int64 `json:"pending"`
}

// State snapshots the controller.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := State{
		Mode: c.cfg.Mode, Target: c.cfg.Target, Band: c.cfg.Band,
		MaxStep: c.cfg.MaxStep, MinTau: c.cfg.MinTau, MaxTau: c.cfg.MaxTau,
		Window: c.cfg.Window,
		Tau:    math.Float64frombits(c.tauBits.Load()), Seeded: c.seeded,
		Windows: c.windows, Updates: c.updates,
		LastSignal: c.lastSignal, LastError: c.lastErr, LastStep: c.lastStep,
		StepBound: c.stepBound,
	}
	if c.cfg.Mode == ModeAgreement {
		st.Pending = c.judged
	} else {
		st.Pending = c.exits + c.offloads
	}
	return st
}
