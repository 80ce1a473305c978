package persist

import (
	"testing"

	"ppa/internal/nvm"
)

func TestDefaultsValidate(t *testing.T) {
	for _, cfg := range []Config{
		BaselineDefault(), PPADefault(), ReplayCacheDefault(),
		CapriDefault(), EADRDefault(), DRAMOnlyDefault(), SBGateDefault(),
		UndoLogDefault(), RedoTxnDefault(), HTPMDefault(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Kind, err)
		}
	}
}

func TestValidateRejectsContradictions(t *testing.T) {
	c := PPADefault()
	c.FixedRegionLen = 10
	if c.Validate() == nil {
		t.Fatal("dynamic+fixed regions must be rejected")
	}
	c = PPADefault()
	c.CSQEntries = 0
	if c.Validate() == nil {
		t.Fatal("PPA without CSQ must be rejected")
	}
	c = CapriDefault()
	c.RedoBufBytes = 0
	if c.Validate() == nil {
		t.Fatal("redo path without buffer must be rejected")
	}
	c = PPADefault()
	c.UseRedoPath = true
	c.RedoBufBytes = 100
	if c.Validate() == nil {
		t.Fatal("two persist paths must be rejected")
	}
	c = ReplayCacheDefault()
	c.Barrier = BarrierStoreGate
	if c.Validate() == nil {
		t.Fatal("store-gate barrier without a redo path must be rejected")
	}
	c = SBGateDefault()
	c.CSQEntries = 0
	if c.Validate() == nil {
		t.Fatal("store-buffer gating without a CSQ to hold the gated stores must be rejected")
	}

	// Retire knobs no store-retire policy describes: a clwb without the
	// async persist path (it hangs the machine), a clwb on gated stores, and
	// the async ablations anywhere but RetireAsync (they do nothing there).
	for _, tc := range []struct {
		name string
		cfg  Config
		set  func(*Config)
	}{
		{"clwb on capri", CapriDefault(), func(c *Config) { c.ClwbPerStore = true }},
		{"clwb on redotxn", RedoTxnDefault(), func(c *Config) { c.ClwbPerStore = true }},
		{"clwb on baseline", BaselineDefault(), func(c *Config) { c.ClwbPerStore = true }},
		{"clwb on sb-gate", SBGateDefault(), func(c *Config) { c.ClwbPerStore = true }},
		{"clwb on htpm", HTPMDefault(), func(c *Config) { c.ClwbPerStore = true }},
		{"sync-persist on sb-gate", SBGateDefault(), func(c *Config) { c.SyncStorePersist = true }},
		{"sync-persist on htpm", HTPMDefault(), func(c *Config) { c.SyncStorePersist = true }},
		{"sync-persist on redotxn", RedoTxnDefault(), func(c *Config) { c.SyncStorePersist = true }},
		{"sync-persist on capri", CapriDefault(), func(c *Config) { c.SyncStorePersist = true }},
		{"eager-flush on sb-gate", SBGateDefault(), func(c *Config) { c.EagerFlush = true }},
		{"eager-flush on htpm", HTPMDefault(), func(c *Config) { c.EagerFlush = true }},
		{"eager-flush on redotxn", RedoTxnDefault(), func(c *Config) { c.EagerFlush = true }},
		{"eager-flush on capri", CapriDefault(), func(c *Config) { c.EagerFlush = true }},
	} {
		c := tc.cfg
		tc.set(&c)
		if c.Validate() == nil {
			t.Errorf("%s must be rejected", tc.name)
		}
	}
}

func TestRetirePolicies(t *testing.T) {
	sync := PPADefault()
	sync.SyncStorePersist = true
	eager := PPADefault()
	eager.EagerFlush = true
	for _, tc := range []struct {
		cfg  Config
		want Retire
	}{
		{BaselineDefault(), RetireMerge},
		{DRAMOnlyDefault(), RetireMerge},
		{EADRDefault(), RetireMerge},
		{CapriDefault(), RetireMerge},
		{PPADefault(), RetireAsync},
		{UndoLogDefault(), RetireAsync},
		{sync, RetireAsync},
		{eager, RetireAsync},
		{ReplayCacheDefault(), RetireClwb},
		{SBGateDefault(), RetireGated},
		{HTPMDefault(), RetireGated},
		{RedoTxnDefault(), RetireGatedLog},
	} {
		if err := tc.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.cfg.Kind, err)
		}
		r := tc.cfg.Retire()
		if r != tc.want {
			t.Errorf("%s retires as %d, want %d", tc.cfg.Kind, r, tc.want)
		}
		if r.WriteBuffer() != tc.cfg.AsyncPersist {
			t.Errorf("%s: WriteBuffer() = %v with AsyncPersist %v", tc.cfg.Kind, r.WriteBuffer(), tc.cfg.AsyncPersist)
		}
	}
}

func TestPersistentClassification(t *testing.T) {
	if BaselineDefault().Persistent() || DRAMOnlyDefault().Persistent() {
		t.Fatal("volatile schemes misclassified")
	}
	for _, cfg := range []Config{PPADefault(), ReplayCacheDefault(), CapriDefault(), EADRDefault()} {
		if !cfg.Persistent() {
			t.Errorf("%s should be persistent", cfg.Kind)
		}
	}
}

func TestSchemeProperties(t *testing.T) {
	ppa := PPADefault()
	if !ppa.DynamicRegions || ppa.FixedRegionLen != 0 || !ppa.AsyncPersist || ppa.CSQEntries != 40 {
		t.Fatalf("PPA defaults wrong: %+v", ppa)
	}
	rc := ReplayCacheDefault()
	if rc.FixedRegionLen != 12 || !rc.ClwbPerStore {
		t.Fatalf("ReplayCache defaults wrong: %+v", rc)
	}
	capri := CapriDefault()
	if capri.FixedRegionLen != 29 || !capri.UseRedoPath || capri.RedoBufBytes != 54<<10 {
		t.Fatalf("Capri defaults wrong: %+v", capri)
	}
}

func TestKindStrings(t *testing.T) {
	for k := Baseline; k <= HTPM; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", int(k))
		}
	}
}

func TestRedoPathAcceptAndDurability(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	r := NewRedoPath(2, 1024, 4, dev)
	if !r.TryAccept(0, 0x100, 42) {
		t.Fatal("accept failed")
	}
	// Battery-backed buffer: durable at accept.
	if dev.ReadWord(0x100) != 42 {
		t.Fatal("redo-accepted store not durable")
	}
	if r.PendingOf(0) != 1 || r.PendingOf(1) != 0 {
		t.Fatal("pending accounting wrong")
	}
}

func TestRedoPathCapacityPerCore(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	r := NewRedoPath(2, 16, 4, dev) // 2 entries per core
	if !r.TryAccept(0, 0x0, 1) || !r.TryAccept(0, 0x8, 2) {
		t.Fatal("fills must succeed")
	}
	if r.TryAccept(0, 0x10, 3) {
		t.Fatal("core 0 buffer full")
	}
	// Core 1's buffer is independent.
	if !r.TryAccept(1, 0x20, 4) {
		t.Fatal("core 1 must have space")
	}
	if r.Rejects != 1 {
		t.Fatalf("rejects = %d", r.Rejects)
	}
}

func TestRedoPathSharedDrainFIFO(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	r := NewRedoPath(2, 1024, 4, dev)
	r.TryAccept(0, 0x0, 1)
	r.TryAccept(1, 0x8, 2)
	r.TryAccept(0, 0x10, 3)
	// Drain order is FIFO across cores; one entry per 4 cycles.
	r.Tick(0)
	if r.PendingOf(0) != 1 || r.PendingOf(1) != 1 {
		t.Fatalf("after 1 drain: %d/%d", r.PendingOf(0), r.PendingOf(1))
	}
	r.Tick(1) // busy, no drain
	if r.PendingOf(1) != 1 {
		t.Fatal("drain must respect bandwidth")
	}
	r.Tick(4)
	if r.PendingOf(1) != 0 {
		t.Fatal("second entry should have drained")
	}
	r.Tick(8)
	if r.PendingOf(0) != 0 {
		t.Fatal("third entry should have drained")
	}
}

func TestRedoPathPowerFail(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	r := NewRedoPath(1, 1024, 4, dev)
	r.TryAccept(0, 0x100, 9)
	r.PowerFail()
	if r.PendingOf(0) != 0 {
		t.Fatal("buffer must empty across failure")
	}
	// Durability was established at accept.
	if dev.ReadWord(0x100) != 9 {
		t.Fatal("battery-backed data lost")
	}
}

func TestRedoPathMaxDepth(t *testing.T) {
	dev := nvm.NewDevice(nvm.DefaultConfig())
	r := NewRedoPath(1, 1024, 4, dev)
	for i := uint64(0); i < 10; i++ {
		r.TryAccept(0, i*8, i)
	}
	if r.MaxDepth != 10 {
		t.Fatalf("max depth %d", r.MaxDepth)
	}
	if r.Accepts != 10 {
		t.Fatalf("accepts %d", r.Accepts)
	}
}
