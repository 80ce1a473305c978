package ppa

import (
	"testing"

	"ppa/internal/inorder"
	"ppa/internal/isa"
	"ppa/internal/multicore"
	"ppa/internal/persist"
	"ppa/internal/workload"
)

// The in-order core's pinned output: SHA-256 digests of RunInOrder's
// InOrderResult JSON and of the final NVM image of each of its two runs
// (in-order baseline and in-order PPA), at inOrderPinInsts instructions of
// thread 0. A multi-threaded app (water-ns) runs its thread 0 alone. The
// last pin is the in-order PPA image behind a two-entry write buffer.
// Regenerate only for an intended behaviour change: run the test with -v
// and copy the printed digests.

const inOrderPinInsts = 50_000

var inOrderPins = []struct {
	app                    string
	result, baseline, ppaI string
}{
	{"sjeng",
		"d47b6f8d741ead162bc2654c00c74e73a828ffbc2303e243d1c569f7649ac36d",
		"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
		"55bcac14d8514363138268ff3e1ccaca1f3e26b2b47db225ab4d10c5700eafe5"},
	{"mcf",
		"3e5ecffec40ed56c271d3b586a47d579d63aad1682741a37bf2804cc3a8e610e",
		"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
		"107cc2ae4818289504f37c9e19405924180d3e9706b73c818a04fe016f94dea8"},
	{"lbm",
		"633b5147ce0e56b192ad133cea9a72052a5a35360f1c0bff05d479c21a6c44e6",
		"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
		"6948e4e4db752f34c151eba520dcb326beb5c1975a9f811f42e0267ebd06ed19"},
	{"xz",
		"2b79b8a4757e67e4a4e4e5654ea752b923ca2be61595bad961524f487d439204",
		"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
		"34122ad95f741e8da34eedfc2e9a3882dd09fdf766fd8db9c1cf5349a237ea5f"},
	{"gcc",
		"052c3a208f071c65fe1de2337996b4e512835c0ef51921baf51653d5e00a65ab",
		"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
		"e7e1fb3ccb3b9f0a85a6872f6a6a7f36f48c9030b0b3274fc4b1f01204a82026"},
	{"water-ns",
		"0a80f3e58e883cee80e58933d90051fa95cb91d7d9791c7b9741cc4dcbd486b6",
		"44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
		"72c2d09e31c67be8f9ca525d756738a590bae409fcfc016c7fcd73d6dfebcf4d"},
}

// inOrderWB2Pin is the mcf in-order PPA image digest with WBEntries 2.
const inOrderWB2Pin = "107cc2ae4818289504f37c9e19405924180d3e9706b73c818a04fe016f94dea8"

func TestInOrderPinnedDigests(t *testing.T) {
	for _, pin := range inOrderPins {
		pin := pin
		t.Run(pin.app, func(t *testing.T) {
			t.Parallel()
			res, err := RunInOrder(pin.app, inOrderPinInsts)
			if err != nil {
				t.Fatal(err)
			}
			got := [3]string{
				jsonDigest(t, res),
				inOrderImageDigest(t, pin.app, persist.BaselineDefault(), nil),
				inOrderImageDigest(t, pin.app, inorder.PPAScheme(), nil),
			}
			t.Logf("{%q, %q, %q, %q},", pin.app, got[0], got[1], got[2])
			if want := [3]string{pin.result, pin.baseline, pin.ppaI}; got != want {
				t.Errorf("%s digests %v, pinned %v", pin.app, got, want)
			}
		})
	}
	t.Run("mcf/wb2", func(t *testing.T) {
		t.Parallel()
		got := inOrderImageDigest(t, "mcf", inorder.PPAScheme(), func(c *multicore.Config) { c.Hierarchy.WBEntries = 2 })
		t.Logf("%q", got)
		if got != inOrderWB2Pin {
			t.Errorf("mcf/wb2 image digest %s, pinned %s", got, inOrderWB2Pin)
		}
	})
}

// inOrderImageDigest runs thread 0 of app on the in-order core under
// scheme, with org's hierarchy changes, on the machine assemble builds for
// a one-thread workload, and digests the final NVM image.
func inOrderImageDigest(t *testing.T, app string, scheme persist.Config, org func(*multicore.Config)) string {
	t.Helper()
	prof, err := workload.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.GenerateThread(prof, inOrderPinInsts, 0)
	if err != nil {
		t.Fatal(err)
	}
	rc := RunConfig{App: app, SchemeOverride: &scheme, InstsPerThread: inOrderPinInsts, Customize: func(c *multicore.Config) {
		inOrderCore(c)
		if org != nil {
			org(c)
		}
	}}
	cfg, w, err := assemble(rc, &workload.Workload{Profile: prof, Threads: []*isa.Program{prog}})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := multicore.NewSystem(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(multicore.CycleBudget(inOrderPinInsts)); err != nil {
		t.Fatal(err)
	}
	return jsonDigest(t, sys.Device().Image().Snapshot())
}
