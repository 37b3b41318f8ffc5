package config

import (
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	for _, p := range []Protocol{NonSecure, Freecursive, Independent, Split} {
		for _, ch := range []int{1, 2} {
			c := Default(p, ch)
			if err := c.Validate(); err != nil {
				t.Errorf("Default(%v, %d): %v", p, ch, err)
			}
		}
	}
	c := Default(IndepSplit, 2)
	if err := c.Validate(); err != nil {
		t.Errorf("Default(IndepSplit, 2): %v", err)
	}
}

func TestIndepSplitNeedsFourSDIMMs(t *testing.T) {
	c := Default(IndepSplit, 1) // 2 SDIMMs only
	if err := c.Validate(); err == nil {
		t.Fatal("indep-split on 2 SDIMMs validated")
	}
}

// TestDefaultConfigMatchesPaper pins the Table II parameters.
func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := Default(Freecursive, 2)
	if c.LLCBytes != 2<<20 || c.LLCWays != 8 || c.LLCLatency != 10 {
		t.Errorf("LLC = %d B/%d-way/%d-cycle, want 2MB/8/10", c.LLCBytes, c.LLCWays, c.LLCLatency)
	}
	if c.ROBSize != 128 {
		t.Errorf("ROB = %d, want 128", c.ROBSize)
	}
	if c.Org.RanksPerChannel() != 8 {
		t.Errorf("ranks/channel = %d, want 8", c.Org.RanksPerChannel())
	}
	if c.Org.BanksPerRank != 8 {
		t.Errorf("banks = %d, want 8", c.Org.BanksPerRank)
	}
	if c.Org.RowBytes != 8192 {
		t.Errorf("row buffer = %d, want 8192", c.Org.RowBytes)
	}
	if c.Org.WriteQueueCap != 64 || c.Org.WriteDrainHigh != 40 {
		t.Errorf("write queue %d/%d, want 64 cap, drain at 40", c.Org.WriteQueueCap, c.Org.WriteDrainHigh)
	}
	if c.ORAM.Z != 4 || c.ORAM.BlockBytes != 64 {
		t.Errorf("Z=%d block=%d, want 4 and 64", c.ORAM.Z, c.ORAM.BlockBytes)
	}
	if c.ORAM.PLBBytes != 64<<10 {
		t.Errorf("PLB = %d, want 64KB", c.ORAM.PLBBytes)
	}
	if c.ORAM.EncLatency != 21 {
		t.Errorf("enc latency = %d, want 21", c.ORAM.EncLatency)
	}
	if c.ORAM.RecursivePosMaps != 5 {
		t.Errorf("recursive posmaps = %d, want 5", c.ORAM.RecursivePosMaps)
	}
	// 32 GB total for the 2-channel system.
	if got := c.Org.TotalBytes(); got != 32<<30 {
		t.Errorf("capacity = %d, want 32 GiB", got)
	}
}

func TestCapacityDerivations(t *testing.T) {
	o := DefaultOrg(1)
	if o.LinesPerRow() != 128 {
		t.Errorf("lines/row = %d, want 128", o.LinesPerRow())
	}
	if o.ChannelBytes() != 16<<30 {
		t.Errorf("channel bytes = %d, want 16 GiB", o.ChannelBytes())
	}
}

func TestORAMDerivations(t *testing.T) {
	o := DefaultORAM(28)
	if o.MetaLinesPerBucket() != 1 {
		t.Errorf("meta lines = %d, want 1", o.MetaLinesPerBucket())
	}
	if o.LinesPerBucket() != 5 {
		t.Errorf("lines/bucket = %d, want 5", o.LinesPerBucket())
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero channels", func(c *Config) { c.Org.Channels = 0 }},
		{"row not multiple of line", func(c *Config) { c.Org.RowBytes = 100 }},
		{"banks not pow2", func(c *Config) { c.Org.BanksPerRank = 6 }},
		{"drain high over cap", func(c *Config) { c.Org.WriteDrainHigh = 100 }},
		{"drain low over high", func(c *Config) { c.Org.WriteDrainLow = 50 }},
		{"zero Z", func(c *Config) { c.ORAM.Z = 0 }},
		{"cached >= levels", func(c *Config) { c.ORAM.CachedLevels = 28 }},
		{"posmap scale 1", func(c *Config) { c.ORAM.PosMapScale = 1 }},
		{"bad drain prob", func(c *Config) { c.ORAM.DrainProb = 1.5 }},
		{"evict over stash", func(c *Config) { c.ORAM.EvictThreshold = 1000 }},
		{"sdimm mismatch", func(c *Config) { c.NumSDIMMs = 3 }},
		{"zero ROB", func(c *Config) { c.ROBSize = 0 }},
		{"bad LLC", func(c *Config) { c.LLCBytes = 1000 }},
		{"zero clock ratio", func(c *Config) { c.Org.CPUCyclesPerMemCycle = 0 }},
	}
	for _, tc := range cases {
		c := Default(Independent, 2)
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tc.name)
		}
	}
}

func TestProtocolString(t *testing.T) {
	names := map[Protocol]string{
		NonSecure:   "non-secure",
		Freecursive: "freecursive",
		Independent: "independent",
		Split:       "split",
		IndepSplit:  "indep-split",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
	if s := Protocol(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown protocol string = %q", s)
	}
}

func TestTimingSane(t *testing.T) {
	tm := DDR31600()
	if tm.TRAS >= tm.TRC {
		// tRC = tRAS + tRP must hold approximately.
		t.Errorf("tRAS %d not < tRC %d", tm.TRAS, tm.TRC)
	}
	if tm.TRC != tm.TRAS+tm.TRP {
		t.Errorf("tRC = %d, want tRAS+tRP = %d", tm.TRC, tm.TRAS+tm.TRP)
	}
	if tm.TFAW < tm.TRRD*4 {
		t.Errorf("tFAW %d < 4*tRRD %d: window never binds", tm.TFAW, 4*tm.TRRD)
	}
}

func TestDDR4TimingSane(t *testing.T) {
	tm := DDR42400()
	if tm.TRC != tm.TRAS+tm.TRP {
		t.Errorf("DDR4 tRC = %d, want tRAS+tRP = %d", tm.TRC, tm.TRAS+tm.TRP)
	}
	d3 := DDR31600()
	// DDR4-2400's absolute latencies are similar but its cycles are
	// shorter, so cycle counts must be larger.
	if tm.CL <= d3.CL || tm.TRCD <= d3.TRCD {
		t.Error("DDR4 cycle counts should exceed DDR3's")
	}
}

func TestDDR4RunsEndToEnd(t *testing.T) {
	c := Default(Freecursive, 1)
	c.Timing = DDR42400()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseProtocolInvertsString(t *testing.T) {
	for p := NonSecure; p <= Ring; p++ {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("protocol(6)"); err == nil {
		t.Error("unknown protocol name accepted")
	}
}
