package scenario

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"testing"

	"doall/internal/sim"
)

// kernelDigest renders the model counts of a run together with an FNV-64a
// hash of its per-task first-performance times.
func kernelDigest(r *sim.Result) string {
	h := fnv.New64a()
	for _, v := range r.FirstDoneAt {
		hashInt(h, v)
	}
	return fmt.Sprintf("w=%d m=%d σ=%d steps=%d msgs=%d first=%016x",
		r.Work, r.Messages, r.SolvedAt, r.TotalSteps, r.TotalMessages, h.Sum64())
}

func hashInt(h hash.Hash64, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// deliveryHash is an observer hashing the (from, to, deliver-at) stream
// of OnDeliver callbacks in callback order.
type deliveryHash struct {
	sim.NopObserver
	h hash.Hash64
}

func (o *deliveryHash) OnDeliver(m sim.Message) {
	hashInt(o.h, int64(m.From))
	hashInt(o.h, int64(m.To))
	hashInt(o.h, m.DeliverAt)
}

// assertKernelPin runs sc at shards 1, 2 and 7, plus once observed, and
// requires every run to reproduce the recorded result digest. The pin is
// "<result digest> dlv=<delivery hash>": the observed run must also
// reproduce the delivery-callback stream, in which every uniform
// multicast fans out to its live recipients one by one. A time cap far above every pinned run
// makes a kernel that livelocks fail fast instead of hanging.
func assertKernelPin(t *testing.T, sc Scenario, want string) {
	t.Helper()
	sc.MaxSteps = 1 << 16
	wantRes, wantDlv, _ := strings.Cut(want, " dlv=")
	check := func(label string, opts Options) {
		t.Helper()
		res, err := RunWith(sc, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := kernelDigest(res.Sim); got != wantRes {
			t.Errorf("%s:\n got %s\nwant %s", label, got, wantRes)
		}
	}
	for _, shards := range []int{1, 2, 7} {
		sc.Shards = shards
		check(fmt.Sprintf("shards=%d", shards), Options{})
	}
	sc.Shards = 1
	obs := &deliveryHash{h: fnv.New64a()}
	check("observed", Options{Observer: obs})
	if got := fmt.Sprintf("%016x", obs.h.Sum64()); got != wantDlv {
		t.Errorf("observed: delivery stream hash %s, want %s", got, wantDlv)
	}
}

// TestStepKernelPins pins the results of the engine's per-step kernels —
// PaRan2's uniform draw over the not-known-done jobs, DA's progress-tree
// closure, and the eager fan-out of a uniform multicast — to digests
// recorded before those kernels were rewritten word-at-a-time. The
// PaRan2 shapes put the done-set's length on and around word boundaries
// (63, 64, 65 jobs); the DA arities put a node's children inside one word
// (q = 2, 3, 8) and across one (q = 65). The DA rows under the other
// adversaries (q = 2, 4) deliver interior bits out of order, revive
// machines with a fresh replica, and clone machines mid-run (stage-det);
// they were recorded before the closure became a word kernel.
func TestStepKernelPins(t *testing.T) {
	paran2 := map[string]string{
		"fair/p=1":             "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"fair/p=63":            "w=945 m=7812 σ=14 steps=945 msgs=7812 first=3968251be9a6eee2 dlv=9c039e9ab6f0a105",
		"fair/p=64":            "w=960 m=8190 σ=14 steps=1129 msgs=9261 first=576ef310d46b5649 dlv=47cba5eda76c93bd",
		"fair/p=65":            "w=975 m=8000 σ=14 steps=975 msgs=8000 first=3516389f7c65bdc2 dlv=fe1a2946ada09cbe",
		"fair/p=256":           "w=3840 m=130815 σ=14 steps=3840 msgs=130815 first=2ff2d4b146cc7dc3 dlv=c6eb5449258f44af",
		"random/p=1":           "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"random/p=63":          "w=743 m=4340 σ=15 steps=804 msgs=4464 first=3d6933f7ccfde3a6 dlv=9aa8a44b867dbee5",
		"random/p=64":          "w=727 m=4662 σ=14 steps=813 msgs=4725 first=182bd12c5ef9e22f dlv=29253459a948362b",
		"random/p=65":          "w=789 m=4864 σ=15 steps=881 msgs=5056 first=d81f05b7548c1d65 dlv=3dc39371303abc8e",
		"random/p=256":         "w=3251 m=77775 σ=16 steps=3548 msgs=77775 first=91a49d8970ddf639 dlv=564d1cb0056b3f6f",
		"crashing/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"crashing/p=63":        "w=915 m=7564 σ=14 steps=915 msgs=7564 first=3968251be9a6eee2 dlv=ec1b66176e37bbbc",
		"crashing/p=64":        "w=930 m=7812 σ=14 steps=930 msgs=7812 first=9b1abc7a1edf92e4 dlv=d113a770e0c424c0",
		"crashing/p=65":        "w=945 m=7808 σ=14 steps=945 msgs=7808 first=3516389f7c65bdc2 dlv=62ab8b77fdbb27e9",
		"crashing/p=256":       "w=3810 m=129795 σ=14 steps=3810 msgs=129795 first=2ff2d4b146cc7dc3 dlv=823ebb203517d971",
		"restarting/p=1":       "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"restarting/p=63":      "w=915 m=7564 σ=14 steps=915 msgs=7564 first=3968251be9a6eee2 dlv=ec1b66176e37bbbc",
		"restarting/p=64":      "w=930 m=7812 σ=14 steps=930 msgs=7812 first=9b1abc7a1edf92e4 dlv=d113a770e0c424c0",
		"restarting/p=65":      "w=945 m=7808 σ=14 steps=945 msgs=7808 first=3516389f7c65bdc2 dlv=62ab8b77fdbb27e9",
		"restarting/p=256":     "w=3810 m=129795 σ=14 steps=3810 msgs=129795 first=2ff2d4b146cc7dc3 dlv=823ebb203517d971",
		"omitting(fair)/p=1":   "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"omitting(fair)/p=63":  "w=945 m=7812 σ=14 steps=945 msgs=7812 first=3968251be9a6eee2 dlv=2154d381b31951ba",
		"omitting(fair)/p=64":  "w=960 m=8064 σ=14 steps=960 msgs=8064 first=8db03499e4f35b80 dlv=86dd4f18f0ec8c21",
		"omitting(fair)/p=65":  "w=975 m=8000 σ=14 steps=975 msgs=8000 first=3516389f7c65bdc2 dlv=d51b64c62f78289c",
		"omitting(fair)/p=256": "w=3840 m=130815 σ=14 steps=3840 msgs=130815 first=2ff2d4b146cc7dc3 dlv=9b1efa9014dcb6aa",
		"slow-set(fair)/p=1":   "w=7 m=0 σ=24 steps=7 msgs=0 first=6c7b7d1611628999 dlv=cbf29ce484222325",
		"slow-set(fair)/p=63":  "w=780 m=5394 σ=19 steps=812 msgs=5394 first=ff523e2b3b96e250 dlv=c5665cc84f90857f",
		"slow-set(fair)/p=64":  "w=800 m=6300 σ=19 steps=832 msgs=6300 first=62224921ce83dd28 dlv=d07d7d4dae29b383",
		"slow-set(fair)/p=65":  "w=902 m=6784 σ=21 steps=964 msgs=6784 first=495ddedd6011a118 dlv=60244b60fb982ff9",
		"slow-set(fair)/p=256": "w=4096 m=113985 σ=24 steps=4096 msgs=113985 first=668d32d403539816 dlv=617400e3dfa48cbb",
		"stage-online/p=1":     "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"stage-online/p=63":    "w=845 m=7068 σ=15 steps=845 msgs=7068 first=32d8ab2a1917d86b dlv=5789b5d7fbd35bce",
		"stage-online/p=64":    "w=1052 m=8316 σ=18 steps=1052 msgs=8316 first=af147bf8dce7c680 dlv=3bebd3bebada1fb2",
		"stage-online/p=65":    "w=1053 m=8384 σ=18 steps=1053 msgs=8384 first=3d5af858ceccec33 dlv=57d03ff4f80cc025",
		"stage-online/p=256":   "w=5041 m=146115 σ=21 steps=5041 msgs=146115 first=8816aad71acbb266 dlv=9fb07dd9e40ecbd5",
	}
	da := map[string]string{
		"fair/q=2/p=63":            "w=1071 m=3968 σ=16 steps=1258 msgs=3968 first=a60ecf35fa071655 dlv=5094d8bcaaee2785",
		"fair/q=2/p=256":           "w=4096 m=65280 σ=15 steps=4096 msgs=65280 first=e180b6b13fad8e68 dlv=2382a586cc582925",
		"fair/q=3/p=63":            "w=1134 m=5890 σ=17 steps=1134 msgs=5890 first=5dbfa1fdc7ac06cb dlv=044f8f116f18a085",
		"fair/q=3/p=256":           "w=3328 m=65280 σ=12 steps=3328 msgs=65280 first=dbac6154b1b363e3 dlv=a4ffc54930b6e9e5",
		"fair/q=8/p=63":            "w=1008 m=7316 σ=15 steps=1128 msgs=7316 first=37d38dd0919e410b dlv=b700ad0c120e7d6d",
		"fair/q=8/p=256":           "w=10752 m=290700 σ=41 steps=10752 msgs=290700 first=ae22066361a897eb dlv=1efaf8dc7862e665",
		"fair/q=65/p=63":           "w=1071 m=7812 σ=16 steps=1071 msgs=7812 first=947dbb2acbaa9402 dlv=c1b8416aa6a3f6a5",
		"fair/q=65/p=256":          "w=30720 m=1194165 σ=119 steps=30720 msgs=1194165 first=cfd5dc623dccdb79 dlv=7a8e1d37be6f4855",
		"crashing/q=2/p=63":        "w=1203 m=3968 σ=19 steps=1203 msgs=3968 first=9c290068edbb2c09 dlv=a1e0ad84b4a721e8",
		"crashing/q=2/p=256":       "w=5562 m=65280 σ=21 steps=5562 msgs=65280 first=8c8ea234c9bcbb70 dlv=f9439f6993b46adc",
		"crashing/q=3/p=63":        "w=1089 m=5890 σ=17 steps=1089 msgs=5890 first=f9187a0f57ff7f4d dlv=c9bf62d647216835",
		"crashing/q=3/p=256":       "w=3306 m=64770 σ=12 steps=3306 msgs=64770 first=dbac6154b1b363e3 dlv=e9748d19e950a324",
		"crashing/q=8/p=63":        "w=1089 m=7440 σ=17 steps=1089 msgs=7440 first=69feb204a40ef58b dlv=c666b912e48bf18c",
		"crashing/q=8/p=256":       "w=10963 m=307020 σ=43 steps=10963 msgs=307020 first=21b932f194b306ab dlv=b34227e2018dc729",
		"crashing/q=65/p=63":       "w=1031 m=7502 σ=16 steps=1031 msgs=7502 first=7b0c94e2bbbb2588 dlv=203a81431f8b9cfb",
		"crashing/q=65/p=256":      "w=28380 m=1102875 σ=119 steps=28380 msgs=1102875 first=cfd5dc623dccdb79 dlv=d989fea6bc6b0ab3",
		"random/q=2/p=63":          "w=993 m=3472 σ=20 steps=1077 msgs=3472 first=fb5fcea645c8b356 dlv=1d1c90d2fc1a9328",
		"random/q=2/p=256":         "w=4815 m=56610 σ=24 steps=5090 msgs=56610 first=4ea66f342db6d3d1 dlv=a47b6f56f5d15f6c",
		"random/q=4/p=63":          "w=809 m=3720 σ=16 steps=869 msgs=3720 first=2bfc90b8934ed764 dlv=c69009dcb19c99e6",
		"random/q=4/p=256":         "w=3672 m=59160 σ=18 steps=3940 msgs=59160 first=dcea3aa784abca2b dlv=9efe6f89584c9f13",
		"restarting/q=2/p=63":      "w=1210 m=3968 σ=19 steps=1210 msgs=3968 first=9c290068edbb2c09 dlv=a20f44fce7feb588",
		"restarting/q=2/p=256":     "w=5574 m=65280 σ=21 steps=7841 msgs=146370 first=8c8ea234c9bcbb70 dlv=67c5785230baf594",
		"restarting/q=4/p=63":      "w=1033 m=4340 σ=16 steps=1033 msgs=4340 first=067877b609361846 dlv=375328d1e077f529",
		"restarting/q=4/p=256":     "w=4566 m=66300 σ=17 steps=4566 msgs=66300 first=a2c671adec6038ac dlv=2c988e2ca257fded",
		"omitting(fair)/q=2/p=63":  "w=1260 m=4092 σ=19 steps=1260 msgs=4092 first=a60ecf35fa071655 dlv=fb6273035540d445",
		"omitting(fair)/q=2/p=256": "w=4096 m=65280 σ=15 steps=5624 msgs=65535 first=e180b6b13fad8e68 dlv=68c96e4dd730762a",
		"omitting(fair)/q=4/p=63":  "w=1071 m=4464 σ=16 steps=1071 msgs=4464 first=a3f82b0a252d9e8c dlv=57f4a402770a9175",
		"omitting(fair)/q=4/p=256": "w=4608 m=66810 σ=17 steps=4608 msgs=66810 first=63860b3d0aa5a06c dlv=9f49cb50584d53a5",
		"slow-set(fair)/q=2/p=63":  "w=1186 m=3968 σ=29 steps=1309 msgs=5828 first=e0fdc19bd6bce8a5 dlv=caa68ff6ccfdb625",
		"slow-set(fair)/q=2/p=256": "w=3584 m=65280 σ=21 steps=3712 msgs=65280 first=52e363693afcb68f dlv=31e775831329ab25",
		"slow-set(fair)/q=4/p=63":  "w=1030 m=5828 σ=25 steps=1153 msgs=5890 first=c884941adabac7d5 dlv=9d4c5d5c2f59cb35",
		"slow-set(fair)/q=4/p=256": "w=3840 m=97920 σ=23 steps=3968 msgs=97920 first=57cc2ad12fe67399 dlv=dad8908ba58b4865",
		"stage-online/q=2/p=63":    "w=966 m=3968 σ=16 steps=1091 msgs=3968 first=9e10898c0c2c547c dlv=1f075c903266bac5",
		"stage-online/q=2/p=256":   "w=5051 m=67320 σ=21 steps=5051 msgs=67320 first=f2ab8cd69803a28b dlv=e7d4f63773fad33f",
		"stage-online/q=4/p=63":    "w=867 m=4092 σ=15 steps=867 msgs=4092 first=f4bb9b7b4753f3af dlv=0ef0aa8682e3e165",
		"stage-online/q=4/p=256":   "w=4934 m=92820 σ=21 steps=4934 msgs=92820 first=71f282073be5e256 dlv=efaa59575f1c6426",
		"stage-det/q=2/p=63":       "w=1071 m=3968 σ=16 steps=1196 msgs=3968 first=a60ecf35fa071655 dlv=c0d2fc0a2607fb45",
		"stage-det/q=2/p=256":      "w=4096 m=65280 σ=15 steps=4096 msgs=65280 first=e180b6b13fad8e68 dlv=2382a586cc582925",
		"stage-det/q=4/p=63":       "w=999 m=4092 σ=15 steps=1169 msgs=7812 first=34026c3f19fe55ec dlv=cdcabace515db635",
		"stage-det/q=4/p=256":      "w=4018 m=65280 σ=15 steps=4018 msgs=65280 first=ce126c599e56a0ea dlv=baec4ee2aa638663",
	}
	for _, adv := range []string{"fair", "random", "crashing", "restarting", "omitting(fair)", "slow-set(fair)", "stage-online"} {
		for _, p := range []int{1, 63, 64, 65, 256} {
			key := fmt.Sprintf("%s/p=%d", adv, p)
			t.Run("PaRan2/"+key, func(t *testing.T) {
				sc := Scenario{Algorithm: AlgoPaRan2, Adversary: adv, P: p, T: 4*p + 3, D: 3, Seed: 11}
				assertKernelPin(t, sc, paran2[key])
			})
		}
	}
	daRuns := []struct {
		advs []string
		qs   []int
	}{
		{[]string{"fair", "crashing"}, []int{2, 3, 8, 65}},
		{[]string{"random", "restarting", "omitting(fair)", "slow-set(fair)", "stage-online", "stage-det"}, []int{2, 4}},
	}
	for _, run := range daRuns {
		for _, adv := range run.advs {
			for _, q := range run.qs {
				for _, p := range []int{63, 256} {
					key := fmt.Sprintf("%s/q=%d/p=%d", adv, q, p)
					t.Run("DA/"+key, func(t *testing.T) {
						sc := Scenario{Algorithm: AlgoDA, Adversary: adv, P: p, T: 4*p + 3, Q: q, D: 3, Seed: 11}
						assertKernelPin(t, sc, da[key])
					})
				}
			}
		}
	}
}
