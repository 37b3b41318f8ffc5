package experiments

import (
	"fmt"

	"sdimm/internal/config"
	"sdimm/internal/cpusim"
	"sdimm/internal/event"
	"sdimm/internal/protocol"
	"sdimm/internal/stats"
	"sdimm/internal/trace"
)

// CoTenant evaluates the co-residency claim of Section III-A: a non-secure
// VM shares the machine with a secure tenant. Under the Freecursive
// baseline the ORAM's shuffle traffic saturates the shared channels and
// the non-secure VM's memory latency balloons; under the Independent SDIMM
// protocol the shuffle stays on the DIMMs and the non-secure VM is barely
// disturbed. Reported: the tenant's average memory latency normalized to
// running alone.
func CoTenant(o Options) (*stats.Table, error) {
	o = o.withDefaults()
	const tenantWorkload = "milc"

	t := stats.NewTable("Co-tenant memory latency vs running alone",
		"with-freecursive", "with-indep-sdimm")
	alone, err := tenantAlone(o, tenantWorkload)
	if err != nil {
		return nil, err
	}
	for _, w := range o.Workloads {
		shared, err := tenantWith(o, config.Freecursive, w, tenantWorkload)
		if err != nil {
			return nil, err
		}
		sdimm, err := tenantWith(o, config.Independent, w, tenantWorkload)
		if err != nil {
			return nil, err
		}
		t.Set(w, "with-freecursive", shared/alone)
		t.Set(w, "with-indep-sdimm", sdimm/alone)
	}
	return t, nil
}

// tenantAlone measures the tenant's average miss latency with the machine
// to itself (its own LRDIMM, empty host links).
func tenantAlone(o Options, tenantWorkload string) (float64, error) {
	cfg := o.configFor(config.Independent, 2)
	eng := &event.Engine{}
	backend, err := protocol.NewIndependent(eng, cfg)
	if err != nil {
		return 0, err
	}
	tenant, err := protocol.NewTenantOnLinks(eng, cfg, backend.Links())
	if err != nil {
		return 0, err
	}
	core, err := tenantCore(eng, cfg, tenant, tenantWorkload, o)
	if err != nil {
		return 0, err
	}
	core.Start(nil)
	eng.RunWhile(func() bool { return !core.Done() })
	return core.Stats().AvgMissLatency(), nil
}

// tenantWith measures the tenant's latency while a secure tenant runs the
// given protocol alongside.
func tenantWith(o Options, p config.Protocol, secureWorkload, tenantWorkload string) (float64, error) {
	cfg := o.configFor(p, 2)
	eng := &event.Engine{}
	backend, err := protocol.New(eng, cfg)
	if err != nil {
		return 0, err
	}

	var tenant *protocol.TenantMem
	switch p {
	case config.Freecursive:
		chans, _ := backend.Channels()
		tenant, err = protocol.NewTenantOnChannels(eng, cfg.Org, chans)
	default:
		tenant, err = protocol.NewTenantOnLinks(eng, cfg, backend.Links())
	}
	if err != nil {
		return 0, err
	}

	secureProf, err := trace.ProfileByName(secureWorkload)
	if err != nil {
		return 0, err
	}
	secureRecs, err := secureProf.Generate(o.Warmup+o.Measure, o.Seed)
	if err != nil {
		return 0, err
	}
	secureCore, err := cpusim.New(eng, backend, coreConfig(cfg), secureRecs)
	if err != nil {
		return 0, err
	}

	tenantCoreV, err := tenantCore(eng, cfg, tenant, tenantWorkload, o)
	if err != nil {
		return 0, err
	}

	secureCore.Start(nil)
	tenantCoreV.Start(nil)
	// Measure the tenant while the secure tenant is actually running:
	// stop when the tenant finishes or the secure side runs dry.
	eng.RunWhile(func() bool { return !tenantCoreV.Done() && !secureCore.Done() })
	lat := tenantCoreV.Stats().AvgMissLatency()
	if lat == 0 {
		return 0, fmt.Errorf("cotenant: tenant made no progress under %v", p)
	}
	return lat, nil
}

func tenantCore(eng *event.Engine, cfg config.Config, mem cpusim.Memory, workload string, o Options) (*cpusim.Core, error) {
	prof, err := trace.ProfileByName(workload)
	if err != nil {
		return nil, err
	}
	recs, err := prof.Generate(o.Warmup+o.Measure, o.Seed^0xc07e)
	if err != nil {
		return nil, err
	}
	return cpusim.New(eng, mem, coreConfig(cfg), recs)
}

// coreConfig is the core and LLC both tenants run on.
func coreConfig(cfg config.Config) cpusim.Config {
	return cpusim.Config{
		LLCLines: cfg.LLCBytes / cfg.Org.LineBytes, LLCWays: cfg.LLCWays,
		LLCLatency: cfg.LLCLatency, ROB: cfg.ROBSize,
	}
}
