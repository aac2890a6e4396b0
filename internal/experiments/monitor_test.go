package experiments

import (
	"bytes"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/trace"
	"repro/internal/vmcs"
)

// monitorRun drives the degradation-surface grid (its storm cells are the
// canonical non-converging dirty-rate workload) with a monitor attached at
// the given worker count and returns the merged monitor's snapshot bytes.
func monitorRun(t *testing.T, workers int) ([]byte, *monitor.Monitor) {
	t.Helper()
	rules, err := monitor.ParseRules(
		"monitor/dirty_rate_pps{vm0/pml} > 1000 for 100us, burn(1ms) > 1.5")
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(monitor.Config{Rules: rules})
	reg := metrics.NewRegistry()
	opt := Options{Workers: workers, Seed: 11, Metrics: reg, Monitor: mon}
	if _, err := Run("degradation-surface", opt); err != nil {
		t.Fatalf("degradation-surface (workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := mon.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mon
}

// TestMonitorByteIdenticalAcrossWorkers is the monitor plane's half of the
// sharding contract: the same seeded grid at -workers 8 and -workers 1
// must fold to byte-identical estimator series, alert timelines and round
// series - the monitor analogue of checkByteIdentical.
func TestMonitorByteIdenticalAcrossWorkers(t *testing.T) {
	serial, mon := monitorRun(t, 1)
	parallel, _ := monitorRun(t, 8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("monitor snapshots differ between workers=1 and workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	// The grid must actually exercise the plane: storm cells are
	// non-converging by construction, so the predictor fires, and the
	// dirty-rate rule sees the storm.
	if len(mon.Predictions()) == 0 {
		t.Error("degradation-surface produced no convergence predictions - the storm cells should never converge")
	}
	if len(mon.Alerts()) == 0 {
		t.Error("degradation-surface produced no alerts")
	}
	snap := mon.Snapshot()
	if len(snap.Estimators) == 0 {
		t.Error("no estimators fed - the event-observer bridge is not wired")
	}
	if len(snap.Rounds) == 0 {
		t.Error("no round series fed - the migration round boundary is not wired")
	}
}

// TestEveryMappedKindEmits is the registry cross-check: every trace kind
// the metrics bridge maps to a subsystem must actually emit - as an event
// counter in that subsystem - under the canned scenario mix. A mapping
// nothing emits is dead weight; an emission without a mapping would land
// in "other". Kinds outside the mix's reach are listed with the reason.
func TestEveryMappedKindEmits(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario mix skipped with -short")
	}
	// Kinds the canned mix cannot emit, each with why. Keep this list
	// honest: a new kind belongs here only if no canned scenario can
	// reach it.
	unreachable := map[trace.Kind]string{
		trace.KindSPPViolation: "sub-page protection is modeled but no canned scenario arms SPP",
	}

	rules, err := monitor.ParseRules("cpu/events{hypercall} > 0")
	if err != nil {
		t.Fatal(err)
	}
	var sink trace.Memory
	tr := trace.New(&sink, 1<<16)
	reg := metrics.NewRegistry()
	mon := monitor.New(monitor.Config{Rules: rules})
	cfg := machine.Config{Tracer: tr, Metrics: reg, Monitor: mon}

	// The shared scenario mix covers the tracking techniques, CRIU, GC and
	// the fault/recovery kinds ...
	runObservedScenarios(t, cfg)
	// ... two faulted storm migration cells cover the transport recovery
	// kinds (retry, nack, resume, abort) plus the monitor's round feed ...
	for _, name := range []string{"flaky-wire", "hostile"} {
		mix, ok := transportMixByName(name)
		if !ok {
			t.Fatalf("no %s transport mix registered", name)
		}
		if _, err := runDegradationCell(mix, costmodel.EPML, degStormWrites, 3, 0, cfg); err != nil {
			t.Fatalf("runDegradationCell(%s): %v", name, err)
		}
	}
	// ... and the generic vmexit only exists for guest VMCS access without
	// shadowing, so poke one unshadowed field on a fresh guest.
	m, err := machine.New(machine.Config{Tracer: tr, Metrics: reg, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Guest(0).SimVM().VCPU.GuestVMWrite(vmcs.FieldGuestPMLEnable, 1); err == nil {
		t.Fatal("unshadowed guest vmwrite succeeded, want the #UD-style refusal")
	}

	for k := trace.Kind(0); int(k) < trace.NumKinds(); k++ {
		sub := metrics.KindSubsystem(k)
		if sub == "other" {
			continue // unmapped; TestKindSubsystemCoversAllKinds guards this
		}
		if why, ok := unreachable[k]; ok {
			if c := reg.LookupCounter(sub, metrics.NameEvents, k.String()); c.Value() > 0 {
				t.Errorf("%v listed unreachable (%s) but emitted %d events - remove it from the list", k, why, c.Value())
			}
			continue
		}
		c := reg.LookupCounter(sub, metrics.NameEvents, k.String())
		if c.Value() == 0 {
			t.Errorf("%v: mapped to subsystem %q but never emitted under the canned mix", k, sub)
		}
	}
}

// transportMixByName finds a canned transport fault mix.
func transportMixByName(name string) (TransportFaultMix, bool) {
	for _, m := range TransportFaultMixes {
		if m.Name == name {
			return m, true
		}
	}
	return TransportFaultMix{}, false
}
