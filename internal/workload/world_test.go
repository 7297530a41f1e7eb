package workload

import (
	"fmt"
	"strings"
	"testing"

	"shootdown/internal/core"
	"shootdown/internal/fault"
	"shootdown/internal/kernel"
	"shootdown/internal/mach"
	"shootdown/internal/sim"
)

// TestTLBModeRewriteKeepsConfigsValid: every dispatch-tier override must
// map a valid protocol config to a valid one. The sync rewrite has to
// clear both broken fabric variants, which are only defined on the async
// tier; leaving BrokenCoalesceShrink set made world boot panic.
func TestTLBModeRewriteKeepsConfigsValid(t *testing.T) {
	newFlusher := func(cfg core.Config) error {
		k := kernel.New(sim.NewEngine(1), mach.DefaultTopology(), mach.DefaultCosts(), kernel.DefaultConfig())
		_, err := core.NewFlusher(k, cfg)
		return err
	}
	valid := 0
	for bits := 0; bits < 1<<5; bits++ {
		cfg := core.Config{
			AsyncShootdown:       bits&1 != 0,
			BrokenAckBeforeDrain: bits&2 != 0,
			BrokenCoalesceShrink: bits&4 != 0,
			SerializedIPIs:       bits&8 != 0,
			LazyRemote:           bits&16 != 0,
		}
		if newFlusher(cfg) != nil {
			continue
		}
		valid++
		for _, mode := range []string{"", "sync", "async"} {
			got := applyTLBMode(mode, cfg)
			if err := newFlusher(got); err != nil {
				t.Errorf("tlbmode %q on %+v: rewritten config rejected: %v", mode, cfg, err)
			}
			if mode == "sync" && got.AsyncShootdown {
				t.Errorf("tlbmode sync left AsyncShootdown set on %+v", cfg)
			}
			if mode == "async" && !got.SerializedIPIs && !got.LazyRemote && !got.AsyncShootdown {
				t.Errorf("tlbmode async did not set AsyncShootdown on %+v", cfg)
			}
		}
	}
	if valid == 0 {
		t.Fatal("no valid config in the table")
	}
}

// TestNewWorldAppliesEnv: each part of an Env reaches the booted machine,
// and ServerConfig.Topo overrides Env.Topo.
func TestNewWorldAppliesEnv(t *testing.T) {
	wide, err := mach.ScaleTopology(256)
	if err != nil {
		t.Fatal(err)
	}
	light, _ := fault.Preset("light")
	hooked := 0
	env := Env{Faults: light, TLBMode: "async", Topo: wide, BootHook: func(*World) { hooked++ }}
	w := NewWorld(env, Safe, core.Config{ConcurrentFlush: true}, 1)
	defer w.Close()
	if !w.Fault.Active() || w.Fault.Spec() != light {
		t.Errorf("fault plane = %v, want the light schedule", w.Fault.Spec())
	}
	if !w.F.Cfg.AsyncShootdown {
		t.Error("TLBMode async did not reach the flusher config")
	}
	if w.K.Topo != wide {
		t.Errorf("topology = %s, want %s", w.K.Topo.Spec(), wide.Spec())
	}
	if hooked != 1 {
		t.Errorf("boot hook ran %d times, want 1", hooked)
	}

	zero := NewWorld(Env{}, Safe, core.Config{}, 1)
	defer zero.Close()
	if zero.Fault.Active() || zero.K.Topo != mach.DefaultTopology() {
		t.Errorf("zero Env booted faults=%v topology %s, want none on %s",
			zero.Fault.Active(), zero.K.Topo.Spec(), mach.DefaultTopology().Spec())
	}

	srv := ServerConfig{Env: Env{Topo: wide}, Mode: Safe, TasksPerCPU: 1, Connections: 1 << 10,
		EventsPerTask: 2, RecycleEvery: 2, RemapEvery: 3, Recyclers: 2, Seed: 1}
	if r := RunServer(srv); r.Tasks != wide.NumCPUs() {
		t.Errorf("server on Env.Topo ran %d tasks, want %d", r.Tasks, wide.NumCPUs())
	}
	srv.Topo = mach.DefaultTopology()
	if r := RunServer(srv); r.Tasks != mach.DefaultTopology().NumCPUs() {
		t.Errorf("ServerConfig.Topo did not override Env.Topo: %d tasks", r.Tasks)
	}
}

func TestParseEnv(t *testing.T) {
	wide, _ := mach.ScaleTopology(512)
	heavy, _ := fault.Preset("heavy")
	for _, tc := range []struct {
		faults, tlbmode, topo string
		want                  Env
		err                   string
	}{
		{"", "", "", Env{}, ""},
		{"none", "sync", "", Env{TLBMode: "sync"}, ""},
		{"heavy", "async", "512", Env{Faults: heavy, TLBMode: "async", Topo: wide}, ""},
		{"default", "", "", Env{}, "fault: \"default\" is neither a preset"},
		{"", "auto", "", Env{}, "-tlbmode must be sync or async"},
		{"", "", "3x3", Env{}, "mach: topology \"3x3\""},
	} {
		got, err := ParseEnv(tc.faults, tc.tlbmode, tc.topo)
		if tc.err != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.err) {
				t.Errorf("ParseEnv(%q, %q, %q) error = %v, want prefix %q", tc.faults, tc.tlbmode, tc.topo, err, tc.err)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("ParseEnv(%q, %q, %q) = %+v, %v; want %+v", tc.faults, tc.tlbmode, tc.topo, got, err, tc.want)
		}
	}
}

// FuzzParseEnv feeds arbitrary flag strings to the shared parser: it must
// never panic, and any Env it returns must survive a round trip of its
// fault schedule through fault.Spec.String.
func FuzzParseEnv(f *testing.F) {
	f.Add("none", "", "")
	f.Add("light", "sync", "56")
	f.Add("heavy,noretry", "async", "512")
	f.Add("drop=0.5,dropburst=3", "", "2x14x2")
	f.Add("delay=0.25:1000,stall=1:0", "sync", "4x8x2x2")
	f.Add("broken", "async", "default")
	f.Add("delay=0:5,dropburst=2", "", "1024")
	f.Add("evict=NaN", "", "")
	f.Add("light,drop=0.3,preempt=0.1:99", "sync", "0x0x0")
	f.Fuzz(func(t *testing.T, faults, tlbmode, topo string) {
		env, err := ParseEnv(faults, tlbmode, topo)
		if err != nil {
			return
		}
		s := env.Faults.String()
		back, err := fault.Parse(s)
		if err != nil {
			t.Fatalf("ParseEnv(%q) spec renders %q, which fault.Parse rejects: %v", faults, s, err)
		}
		if back != env.Faults {
			t.Fatalf("ParseEnv(%q) spec %#v renders %q, which parses back as %#v", faults, env.Faults, s, back)
		}
	})
}
