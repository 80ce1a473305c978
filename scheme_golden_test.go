package ppa

import (
	"testing"

	"ppa/internal/inorder"
	"ppa/internal/multicore"
)

// The schemes' output golden digests: SHA-256 of each scheme's Result JSON
// and of its final NVM image, for one single-core and one 8-thread run
// with region tracing on. They pin every simulated figure a Result carries
// — including the per-region RegionTrace records and their boundary stall
// cycles — so a refactor of the persist backends or of the pipeline's
// commit path that shifts any cycle shows up here. Regenerate only for an
// intended behaviour change: run the test with -v and copy the printed
// digests.

// goldenSchemeRuns are the pinned workloads: mcf runs one thread,
// water-ns eight.
var goldenSchemeRuns = []struct {
	app     string
	threads int
	insts   int
}{
	{"mcf", 1, 4000},
	{"water-ns", 8, 2000},
}

// goldenSchemeDigests maps app/scheme to {Result digest, image digest}.
var goldenSchemeDigests = map[string][2]string{
	"mcf/baseline":         {"54d8dc2ab567529d68eca2c7008128753106362b06e62e4051c0c1c55a58df80", "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"},
	"mcf/capri":            {"16bebede39bacd0b76803cf6dc92d520145803296c871d5f3f9bdbbe23016403", "4076110ad1e048717b51d998af4d0d5ca3a19a8594a1acd8a2fd48aba0a61059"},
	"mcf/dram-only":        {"88750f405fa14122ba1979b18a847947934d4693e0424245a2a0640d223e86da", "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"},
	"mcf/eadr":             {"a9c7084a7b8e558660aed612d2c38b6a4949fcb3dc311227b572af58e4de7c34", "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"},
	"mcf/htpm":             {"e0419713b996ca4cf5bccd0ce372bf02bf6cde94a67af82ba472120e51e69bb4", "8da23689a59dc4e7d7950ea47c3111b0920d928c604a4f87a58b1c6037539318"},
	"mcf/ppa":              {"6f62f004379e31cba3c011e2d515509e12fb5a584bd2c53b7c478c7bccbf121b", "c7caa78124f79ef87981a8b7aff88a9a6dce1e04c66aa088f9439b878f67f5aa"},
	"mcf/redotxn":          {"2666bb23e585e45ede83b2a4c4ce410437cfee24b75bb8d19f5c008551357884", "01d4b8a458257c842d2cfc8d0f6580e886e6a440a1dc133e4c0372bd94070ea8"},
	"mcf/replaycache":      {"91a281a17f7c71f2368c5c700817837a3a93c20e07e96bb7a733fabfa16c6a32", "4076110ad1e048717b51d998af4d0d5ca3a19a8594a1acd8a2fd48aba0a61059"},
	"mcf/sb-gate":          {"aabfeb6d8f3576cfbaa3dd9b2b7060e4b71d6f06acde49f2e623c3de9c49d7d1", "9e286d74105ef699e0b9b4d62a36e816da6276a282f78626d237d61d789f0b13"},
	"mcf/undolog":          {"698f19df222cd5c345a3146b0ee8528eaccfa71af7b11b3604c3ec86f8743242", "8da23689a59dc4e7d7950ea47c3111b0920d928c604a4f87a58b1c6037539318"},
	"water-ns/baseline":    {"5eacdfe80b599aac08ef5c7439ba4b6232c7a88bc1aaec0ae5b3a8ac0a352647", "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"},
	"water-ns/capri":       {"1a5bf70bfa49c2e9526d524ae5efe2ec7ca80006d03e26f231c95b57e80a9438", "210de308fe0664a074d693ec51d50391d1674a677866edfb9b9fdf11d26876e0"},
	"water-ns/dram-only":   {"b3812cdb34b83c94b7fec74c892433eb06744b6bcadb59918111fdc9d390187d", "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"},
	"water-ns/eadr":        {"c9ca923a264a5f261d460f6320740fb305d49d3cf35f299f8ae6d757e8969bf9", "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"},
	"water-ns/htpm":        {"c4671b92aa2bda214bd885eedea744f9f6172c3e3ab6ea21a58ba91c0991c624", "4cad0b68877d616d52d5872113863a90fe364b157c6ad17309f20acba02b6a4a"},
	"water-ns/ppa":         {"b2813a954cfc83953b15f85061b1975443c6dbf6259464821da8012780575487", "7b0b1f8ac941839d04e6059435b4623362f00fdba6c83f57ebde46f3ab9d9a1d"},
	"water-ns/redotxn":     {"58b31797404e07fd7e864c6dad20b0f6a1f4b43f49f9c6d94773255ac0b8844a", "90064bf286fbacff733e5ea432d45e2b211a714b1f7ace8dc14bf66f398e2627"},
	"water-ns/replaycache": {"137ed748f5cf2187dde8769c4a9b26e8b5106bde9052c6c7e40c940ec98159bc", "9fb03db1c3ec1410b2cb63286bcc7053739884ccfd7e9f2eacbec39bf043700d"},
	"water-ns/sb-gate":     {"9a6e6390575fde55175f1a7492257308e04f6adfdae7fdd781f79307a5801c1a", "c29f88aa139ec3c9678cb7c588826ce57dbe5ec497109e54d23f31e29fa224e8"},
	"water-ns/undolog":     {"5a66fdc01d721e9dfe3e325e664284f0f58007a9e7a07132b3a56042be5ad183", "4cad0b68877d616d52d5872113863a90fe364b157c6ad17309f20acba02b6a4a"},
}

func TestSchemeOutputGoldenDigests(t *testing.T) {
	for _, run := range goldenSchemeRuns {
		for _, s := range Schemes() {
			run, s := run, s
			key := run.app + "/" + string(s)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				got := goldenRunDigests(t, RunConfig{App: run.app, Scheme: s, InstsPerThread: run.insts}, run.threads, nil)
				t.Logf("%q: {%q, %q},", key, got[0], got[1])
				if want := goldenSchemeDigests[key]; got != want {
					t.Errorf("%s digests %v, golden %v", key, got, want)
				}
			})
		}
	}
}

// goldenOrgRuns pin machine organizations the default-machine goldens
// above never build: the Figure 14 private-L2 + shared-L3 hierarchy, a
// two-entry write buffer whose back-pressure stalls stores, and Section 6's
// dual-issue in-order core under in-order PPA and the baseline. water-ns
// runs 5000 instructions per thread because at 2000 its L3 run still
// matches the default hierarchy cycle for cycle. The in-order runs' image
// digests are inOrderPins' mcf images.
var goldenOrgRuns = []struct {
	name    string
	rc      RunConfig
	threads int
	org     func(c *multicore.Config)
	digests [2]string
}{
	{"gcc/ppa/l3", RunConfig{App: "gcc", Scheme: SchemePPA, InstsPerThread: 4000}, 1,
		func(c *multicore.Config) { c.Hierarchy.UseL3 = true },
		[2]string{"2721f7c4e8e56859d66160568de6137aea22b253946edede3865630ce95e795a",
			"98ba2631a8ab587147aa818dfaa6bc1e6382240b9bc914f805098ec99053ccb3"}},
	{"water-ns/ppa/l3", RunConfig{App: "water-ns", Scheme: SchemePPA, InstsPerThread: 5000}, 8,
		func(c *multicore.Config) { c.Hierarchy.UseL3 = true },
		[2]string{"47487a39f48c6ba6c77c8a61d979fc4831968cb0d856edea1f8c8453f211b5b1",
			"960a702a6d14bb4f274cedf725e4bc51e4efade7d2d50745b4b5a0ae1cdf7e0b"}},
	{"mcf/sb-gate/wb2", RunConfig{App: "mcf", Scheme: SchemeSBGate, InstsPerThread: 4000}, 1,
		func(c *multicore.Config) { c.Hierarchy.WBEntries = 2 },
		[2]string{"bc3c1d233cfe0668e90c3e21ebaa7adab40ac7c43bb1975f18fe7a99667bb567",
			"9e286d74105ef699e0b9b4d62a36e816da6276a282f78626d237d61d789f0b13"}},
	{"mcf/inorder-ppa", RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: inOrderPinInsts}, 1,
		inOrderPPA,
		[2]string{"3f5dd4cb2da9a6de2db7d2083cac6afabae4a8971156794a4198db07c2d1d0b4",
			"107cc2ae4818289504f37c9e19405924180d3e9706b73c818a04fe016f94dea8"}},
	{"mcf/inorder-ppa/wb2", RunConfig{App: "mcf", Scheme: SchemePPA, InstsPerThread: inOrderPinInsts}, 1,
		func(c *multicore.Config) { inOrderPPA(c); c.Hierarchy.WBEntries = 2 },
		[2]string{"f796b5985a2766164b835afdfd673bbd0f11b40bdb430e61daa58578f9b30aa4",
			"107cc2ae4818289504f37c9e19405924180d3e9706b73c818a04fe016f94dea8"}},
	{"mcf/inorder-baseline", RunConfig{App: "mcf", Scheme: SchemeBaseline, InstsPerThread: inOrderPinInsts}, 1,
		inOrderCore,
		[2]string{"9953bd00cda37e6c7a8bbcf6da2f235952079e5bd07b84641cc3d9067bf8d87b",
			"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a"}},
}

// inOrderPPA is RunInOrder's in-order PPA machine: run it as SchemePPA so
// the torture tests judge it under PPA's recovery contract.
func inOrderPPA(c *multicore.Config) {
	inOrderCore(c)
	c.Scheme = inorder.PPAScheme()
}

func TestHierarchyOrganizationGoldenDigests(t *testing.T) {
	for _, run := range goldenOrgRuns {
		run := run
		t.Run(run.name, func(t *testing.T) {
			t.Parallel()
			got := goldenRunDigests(t, run.rc, run.threads, run.org)
			t.Logf("%q: {%q, %q},", run.name, got[0], got[1])
			if got != run.digests {
				t.Errorf("%s digests %v, golden %v", run.name, got, run.digests)
			}
		})
	}
}

// goldenRunDigests runs rc to completion with region tracing on (plus org's
// hierarchy changes) and returns the digests of its Result and final NVM
// image.
func goldenRunDigests(t *testing.T, rc RunConfig, threads int, org func(*multicore.Config)) [2]string {
	t.Helper()
	sys, err := NewSystem(goldenConfig(rc, org))
	if err != nil {
		t.Fatal(err)
	}
	return runDigests(t, sys, rc, threads)
}

// goldenConfig is rc with region tracing on and org's hierarchy changes.
func goldenConfig(rc RunConfig, org func(*multicore.Config)) RunConfig {
	rc.Customize = func(c *multicore.Config) {
		c.Pipeline.TraceRegions = true
		if org != nil {
			org(c)
		}
	}
	return rc
}

// runDigests runs sys, a machine for rc, to completion and returns the
// digests of its Result and final NVM image.
func runDigests(t *testing.T, sys *multicore.System, rc RunConfig, threads int) [2]string {
	t.Helper()
	if err := sys.Run(multicore.CycleBudget(rc.InstsPerThread)); err != nil {
		t.Fatal(err)
	}
	res := sys.Collect()
	if res.Cores != threads {
		t.Fatalf("%s ran %d cores, want %d", rc.App, res.Cores, threads)
	}
	for i, st := range res.PerCore {
		if uint64(len(st.RegionTrace)) != st.Regions {
			t.Fatalf("core %d traced %d regions of %d", i, len(st.RegionTrace), st.Regions)
		}
	}
	return [2]string{jsonDigest(t, res), jsonDigest(t, sys.Device().Image().Snapshot())}
}
