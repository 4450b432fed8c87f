package exitpolicy

import (
	"math"
	"testing"
	"testing/quick"
)

// Property tests for the controller's safety envelope (testing/quick):
// whatever the stat stream does — adversarial counts, degenerate windows,
// arbitrary configurations — tau stays in [0,1] and inside its clamp
// range, no single update exceeds the step bound, the dead band really is
// dead, and the response is monotone in the observed signal. These are
// the invariants that make an online tuner safe to run against live
// traffic; the convergence tests show it is also useful.

// quickCfg derives a valid controller config from arbitrary fuzz bytes.
func quickCfg(modeRaw, targetRaw, bandRaw, stepRaw uint8, windowRaw uint8) Config {
	modes := Modes()
	cfg := Config{
		Mode:   modes[int(modeRaw)%len(modes)],
		Target: 0.02 + 0.96*float64(targetRaw)/255, // (0,1)
		Band:   0.49 * float64(bandRaw) / 255,      // [0,0.49]
		// MaxStep in (0,1]; 0 means "use the default".
		MaxStep: float64(stepRaw) / 255,
		Window:  1 + int(windowRaw)%32,
	}
	return cfg
}

// TestControllerTauStaysInRangeQuick: adversarial observation streams can
// never push tau outside [MinTau, MaxTau] ⊆ [0,1], and every update obeys
// the step bound.
func TestControllerTauStaysInRangeQuick(t *testing.T) {
	f := func(modeRaw, targetRaw, bandRaw, stepRaw, windowRaw uint8, initRaw uint8, stream []uint16) bool {
		cfg := quickCfg(modeRaw, targetRaw, bandRaw, stepRaw, windowRaw)
		cfg.InitialTau = float64(initRaw) / 255
		c, err := NewController(cfg)
		if err != nil {
			// quickCfg only produces valid configs; a rejection is a bug.
			t.Logf("config rejected: %v (%+v)", err, cfg)
			return false
		}
		bound := c.Config().MaxStep // post-default value
		prev := c.Tau()
		for _, w := range stream {
			// Decode an adversarial observation from the fuzz word,
			// including nonsense negative counts the controller must shrug
			// off.
			o := Observation{
				LocalExits: int(w&0x3F) - 8,
				Offloaded:  int((w>>6)&0x3F) - 8,
				Agree:      w&(1<<12) != 0,
				Judged:     w&(1<<13) != 0,
			}
			tau, updated := c.Observe(o)
			if math.IsNaN(tau) || tau < 0 || tau > 1 {
				t.Logf("tau %v escaped [0,1]", tau)
				return false
			}
			if tau < c.Config().MinTau || tau > c.Config().MaxTau {
				t.Logf("tau %v escaped clamp [%v,%v]", tau, c.Config().MinTau, c.Config().MaxTau)
				return false
			}
			if d := math.Abs(tau - prev); d > bound+1e-12 {
				t.Logf("step %v exceeded bound %v", d, bound)
				return false
			}
			if !updated && tau != prev {
				t.Logf("tau moved %v -> %v without reporting an update", prev, tau)
				return false
			}
			prev = tau
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestControllerDeadBandQuick: a full window whose signal lands within
// the hysteresis band never changes tau, for any mode and band width.
func TestControllerDeadBandQuick(t *testing.T) {
	f := func(modeRaw, targetRaw, bandRaw uint8, offsetRaw int8) bool {
		cfg := quickCfg(modeRaw, targetRaw, bandRaw, 0, 0)
		cfg.Window = 100 // percent-resolution windows
		cfg.InitialTau = 0.5
		c, err := NewController(cfg)
		if err != nil {
			return false
		}
		cfg = c.Config()
		// Pick an in-band signal: target plus a sub-band offset.
		signal := cfg.Target + cfg.Band*float64(offsetRaw)/129
		k := int(math.Round(signal * 100))
		if k < 0 {
			k = 0
		}
		if k > 100 {
			k = 100
		}
		// Only keep cases whose realizable (quantized) signal is in band.
		if math.Abs(float64(k)/100-cfg.Target) > cfg.Band {
			return true
		}
		var o Observation
		switch cfg.Mode {
		case ModeAgreement:
			for i := 0; i < 100; i++ {
				o = Observation{Offloaded: 1, Judged: true, Agree: i < k}
				if _, updated := c.Observe(o); updated {
					return false
				}
			}
		case ModeUtilization:
			// signal = utilization = offloads/total.
			if _, updated := c.Observe(Observation{LocalExits: 100 - k, Offloaded: k}); updated {
				return false
			}
		default: // ModeExitRate: signal = exits/total.
			if _, updated := c.Observe(Observation{LocalExits: k, Offloaded: 100 - k}); updated {
				return false
			}
		}
		return c.Tau() == 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestControllerMonotoneResponseQuick: for fresh exit-rate controllers
// fed a single window each, a higher observed exit rate never yields a
// higher tau — the sign discipline that makes the loop stable (raising
// tau raises the exit rate, so feedback must push the other way).
func TestControllerMonotoneResponseQuick(t *testing.T) {
	f := func(targetRaw, bandRaw uint8, aRaw, bRaw uint8) bool {
		cfg := Config{
			Mode:   ModeExitRate,
			Target: 0.02 + 0.96*float64(targetRaw)/255,
			Band:   0.49 * float64(bandRaw) / 255,
			Window: 100, InitialTau: 0.5,
		}
		lo, hi := int(aRaw)%101, int(bRaw)%101
		if lo > hi {
			lo, hi = hi, lo
		}
		tauAt := func(exits int) float64 {
			c, err := NewController(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tau, _ := c.Observe(Observation{LocalExits: exits, Offloaded: 100 - exits})
			return tau
		}
		// Higher exit rate (hi) must not produce a higher tau than lo.
		return tauAt(hi) <= tauAt(lo)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestControllerUpdateCountsMatchQuick: Updates counts exactly the
// Observe calls that returned updated, and Windows the completed
// evaluations — the bookkeeping /v1/stats and the lcrs_tau_* metrics
// rely on.
func TestControllerUpdateCountsMatchQuick(t *testing.T) {
	f := func(stream []uint8) bool {
		c, err := NewController(Config{Mode: ModeExitRate, Target: 0.5, Window: 8, InitialTau: 0.5})
		if err != nil {
			return false
		}
		var updates int64
		for _, w := range stream {
			_, updated := c.Observe(Observation{LocalExits: int(w & 0xF), Offloaded: int(w >> 4)})
			if updated {
				updates++
			}
		}
		return c.State().Updates == updates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
