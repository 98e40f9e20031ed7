package fault

import (
	"math"
	"testing"
)

func TestWindowActive(t *testing.T) {
	tests := []struct {
		w    Window
		now  int64
		want bool
	}{
		{Window{From: 10, Until: 20}, 9, false},
		{Window{From: 10, Until: 20}, 10, true},
		{Window{From: 10, Until: 20}, 19, true},
		{Window{From: 10, Until: 20}, 20, false},
		{Window{From: 10}, 9, false},
		{Window{From: 10}, 1 << 40, true}, // permanent
		{Window{}, 0, true},               // permanent from cycle 0
	}
	for _, tt := range tests {
		if got := tt.w.Active(tt.now); got != tt.want {
			t.Errorf("%+v.Active(%d) = %v, want %v", tt.w, tt.now, got, tt.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		cfg    *Config
		wantOK bool
	}{
		{"nil", nil, true},
		{"zero", &Config{}, true},
		{"rates", &Config{DropRate: 0.5, CorruptRate: 1}, true},
		{"drop rate high", &Config{DropRate: 1.5}, false},
		{"corrupt rate negative", &Config{CorruptRate: -0.1}, false},
		{"empty link window", &Config{Links: []LinkOutage{{SrcNode: 0, DstNode: 1, Window: Window{From: 5, Until: 5}}}}, false},
		{"negative router window", &Config{Routers: []RouterOutage{{Node: 3, Window: Window{From: -1}}}}, false},
		{"valid outages", &Config{
			Links:   []LinkOutage{{SrcNode: 0, DstNode: 1, Window: Window{From: 0, Until: 100}}},
			Routers: []RouterOutage{{Node: 3, Window: Window{From: 50}}},
		}, true},
		{"negative timeout", &Config{RetryTimeout: -1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.wantOK {
				t.Errorf("Validate() = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
}

func TestEffectivePolicyDefaults(t *testing.T) {
	var nilCfg *Config
	if got := nilCfg.EffectiveRetryTimeout(); got != DefaultRetryTimeout {
		t.Errorf("nil EffectiveRetryTimeout = %d", got)
	}
	c := &Config{}
	if c.EffectiveRetryTimeout() != DefaultRetryTimeout ||
		c.EffectiveRetryCap() != DefaultRetryCap ||
		c.EffectiveMaxRetries() != DefaultMaxRetries {
		t.Error("zero config must resolve to the documented defaults")
	}
	c = &Config{RetryTimeout: 99, RetryCap: 2, MaxRetries: -1}
	if c.EffectiveRetryTimeout() != 99 || c.EffectiveRetryCap() != 2 {
		t.Error("explicit policy values must pass through")
	}
	if c.EffectiveMaxRetries() != math.MaxInt {
		t.Error("MaxRetries < 0 must mean retry forever")
	}
}

func TestEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Error("nil config enabled")
	}
	if (&Config{Seed: 7, RetryTimeout: 100}).Enabled() {
		t.Error("config with no fault source enabled")
	}
	for _, c := range []*Config{
		{DropRate: 0.01},
		{CorruptRate: 0.01},
		{Links: []LinkOutage{{SrcNode: 0, DstNode: 1}}},
		{Routers: []RouterOutage{{Node: 2}}},
	} {
		if !c.Enabled() {
			t.Errorf("%+v not enabled", c)
		}
	}
}

// TestDropFlitPacketAtomic verifies the head's verdict binds the whole
// packet: body and tail flits of a doomed packet vanish at the same link,
// and a packet whose head survived is never truncated later.
func TestDropFlitPacketAtomic(t *testing.T) {
	inj := NewInjector(&Config{Seed: 1, DropRate: 0.5})
	ls := inj.NewLink(0, nil)
	dropped, kept := 0, 0
	for pid := uint64(1); pid <= 200; pid++ {
		head := ls.DropFlit(pid, true, false, 0)
		body := ls.DropFlit(pid, false, false, 0)
		tail := ls.DropFlit(pid, false, true, 0)
		if head != body || head != tail {
			t.Fatalf("packet %d not atomic: head=%v body=%v tail=%v", pid, head, body, tail)
		}
		if head {
			dropped++
		} else {
			kept++
		}
	}
	if dropped == 0 || kept == 0 {
		t.Fatalf("rate 0.5 over 200 packets gave dropped=%d kept=%d", dropped, kept)
	}
	if len(ls.doomed) != 0 {
		t.Errorf("doomed map leaked %d entries past the tails", len(ls.doomed))
	}
	if ls.Drops != uint64(3*dropped) {
		t.Errorf("Drops = %d, want %d (3 flits per dropped packet)", ls.Drops, 3*dropped)
	}
}

// TestDropDeterminism pins the property everything rests on: the same
// (seed, link index, packet id) triple always produces the same verdict,
// and different seeds or link indices decorrelate.
func TestDropDeterminism(t *testing.T) {
	verdicts := func(seed uint64, index int) []bool {
		inj := NewInjector(&Config{Seed: seed, DropRate: 0.3})
		ls := inj.NewLink(index, nil)
		out := make([]bool, 100)
		for pid := range out {
			out[pid] = ls.DropFlit(uint64(pid)+1, true, true, 0)
		}
		return out
	}
	a, b := verdicts(42, 7), verdicts(42, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed/index diverged at packet %d", i)
		}
	}
	diff := 0
	for i, v := range verdicts(42, 8) {
		if v != a[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different link index produced an identical schedule")
	}
}

// TestOutageWindowBindsAtHead verifies a packet whose head crossed before
// the outage completes intact, while one heading in during the window
// vanishes whole — even if its tail arrives after the window closed.
func TestOutageWindowBindsAtHead(t *testing.T) {
	inj := NewInjector(&Config{Seed: 1, Links: []LinkOutage{{SrcNode: 0, DstNode: 1, Window: Window{From: 10, Until: 20}}}})
	ls := inj.NewLink(0, WindowSet{{From: 10, Until: 20}})
	if ls.DropFlit(1, true, false, 9) {
		t.Fatal("head before window dropped")
	}
	if ls.DropFlit(1, false, true, 15) {
		t.Fatal("tail of a surviving packet dropped inside the window")
	}
	if !ls.DropFlit(2, true, false, 19) {
		t.Fatal("head inside window survived")
	}
	if !ls.DropFlit(2, false, true, 25) {
		t.Fatal("tail of a doomed packet survived past the window")
	}
	if ls.DropFlit(3, true, true, 20) {
		t.Fatal("head at window end dropped (half-open interval)")
	}
}

// TestCorruptIndependentOfDrop checks the two transient schedules at equal
// rates do not shadow each other (distinct salts).
func TestCorruptIndependentOfDrop(t *testing.T) {
	inj := NewInjector(&Config{Seed: 9, DropRate: 0.3, CorruptRate: 0.3})
	ls := inj.NewLink(0, nil)
	both, dropOnly, corruptOnly := 0, 0, 0
	for pid := uint64(1); pid <= 500; pid++ {
		d := ls.DropFlit(pid, true, true, 0)
		c := ls.CorruptFlit(pid, true)
		switch {
		case d && c:
			both++
		case d:
			dropOnly++
		case c:
			corruptOnly++
		}
	}
	if both == 0 || dropOnly == 0 || corruptOnly == 0 {
		t.Errorf("schedules not independent: both=%d dropOnly=%d corruptOnly=%d", both, dropOnly, corruptOnly)
	}
	if inj.Drops() == 0 || inj.Corrupts() == 0 {
		t.Error("injector aggregates must reflect link counters")
	}
}

// TestOutageOnlyLinkIgnoresRates pins NewOutageLink's contract: local
// channels hit by a router outage see the windows but never the transient
// inter-router noise.
func TestOutageOnlyLinkIgnoresRates(t *testing.T) {
	inj := NewInjector(&Config{Seed: 3, DropRate: 1, CorruptRate: 1})
	ls := inj.NewOutageLink(5, WindowSet{{From: 100, Until: 200}})
	for pid := uint64(1); pid <= 50; pid++ {
		if ls.DropFlit(pid, true, true, 0) {
			t.Fatal("outage-only link applied the transient drop rate")
		}
		if ls.CorruptFlit(pid, true) {
			t.Fatal("outage-only link applied the corrupt rate")
		}
	}
	if !ls.DropFlit(99, true, true, 150) {
		t.Fatal("outage-only link ignored its window")
	}
}

func TestThresholdBounds(t *testing.T) {
	if threshold(0) != 0 {
		t.Error("rate 0 must never fire")
	}
	if threshold(1) != math.MaxUint64 {
		t.Error("rate 1 must always fire")
	}
	if th := threshold(0.5); th < math.MaxUint64/4 || th > math.MaxUint64/4*3 {
		t.Errorf("rate 0.5 threshold %d implausible", th)
	}
}
