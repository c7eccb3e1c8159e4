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
	return fmt.Sprintf("w=%d m=%d σ=%d steps=%d msgs=%d B=%d first=%016x",
		r.Work, r.Messages, r.SolvedAt, r.TotalSteps, r.TotalMessages, r.Bytes, h.Sum64())
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
// (q = 2, 3, 8) and across one (q = 65).
func TestStepKernelPins(t *testing.T) {
	paran2 := map[string]string{
		"fair/p=1":             "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"fair/p=63":            "w=945 m=7812 σ=14 steps=945 msgs=7812 B=124992 first=3968251be9a6eee2 dlv=9c039e9ab6f0a105",
		"fair/p=64":            "w=960 m=8190 σ=14 steps=1129 msgs=9261 B=131040 first=576ef310d46b5649 dlv=47cba5eda76c93bd",
		"fair/p=65":            "w=975 m=8000 σ=14 steps=975 msgs=8000 B=128000 first=3516389f7c65bdc2 dlv=fe1a2946ada09cbe",
		"fair/p=256":           "w=3840 m=130815 σ=14 steps=3840 msgs=130815 B=4544100 first=2ff2d4b146cc7dc3 dlv=c6eb5449258f44af",
		"random/p=1":           "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"random/p=63":          "w=743 m=4340 σ=15 steps=804 msgs=4464 B=69440 first=3d6933f7ccfde3a6 dlv=9aa8a44b867dbee5",
		"random/p=64":          "w=727 m=4662 σ=14 steps=813 msgs=4725 B=74592 first=182bd12c5ef9e22f dlv=29253459a948362b",
		"random/p=65":          "w=789 m=4864 σ=15 steps=881 msgs=5056 B=77824 first=d81f05b7548c1d65 dlv=3dc39371303abc8e",
		"random/p=256":         "w=3251 m=77775 σ=16 steps=3548 msgs=77775 B=3119160 first=91a49d8970ddf639 dlv=564d1cb0056b3f6f",
		"crashing/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"crashing/p=63":        "w=915 m=7564 σ=14 steps=915 msgs=7564 B=121024 first=3968251be9a6eee2 dlv=ec1b66176e37bbbc",
		"crashing/p=64":        "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=9b1abc7a1edf92e4 dlv=d113a770e0c424c0",
		"crashing/p=65":        "w=945 m=7808 σ=14 steps=945 msgs=7808 B=124928 first=3516389f7c65bdc2 dlv=62ab8b77fdbb27e9",
		"crashing/p=256":       "w=3810 m=129795 σ=14 steps=3810 msgs=129795 B=4503810 first=2ff2d4b146cc7dc3 dlv=823ebb203517d971",
		"restarting/p=1":       "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"restarting/p=63":      "w=915 m=7564 σ=14 steps=915 msgs=7564 B=121024 first=3968251be9a6eee2 dlv=ec1b66176e37bbbc",
		"restarting/p=64":      "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=9b1abc7a1edf92e4 dlv=d113a770e0c424c0",
		"restarting/p=65":      "w=945 m=7808 σ=14 steps=945 msgs=7808 B=124928 first=3516389f7c65bdc2 dlv=62ab8b77fdbb27e9",
		"restarting/p=256":     "w=3810 m=129795 σ=14 steps=3810 msgs=129795 B=4503810 first=2ff2d4b146cc7dc3 dlv=823ebb203517d971",
		"omitting(fair)/p=1":   "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"omitting(fair)/p=63":  "w=945 m=7812 σ=14 steps=945 msgs=7812 B=124992 first=3968251be9a6eee2 dlv=2154d381b31951ba",
		"omitting(fair)/p=64":  "w=960 m=8064 σ=14 steps=960 msgs=8064 B=129024 first=8db03499e4f35b80 dlv=86dd4f18f0ec8c21",
		"omitting(fair)/p=65":  "w=975 m=8000 σ=14 steps=975 msgs=8000 B=128000 first=3516389f7c65bdc2 dlv=d51b64c62f78289c",
		"omitting(fair)/p=256": "w=3840 m=130815 σ=14 steps=3840 msgs=130815 B=4544100 first=2ff2d4b146cc7dc3 dlv=9b1efa9014dcb6aa",
		"slow-set(fair)/p=1":   "w=7 m=0 σ=24 steps=7 msgs=0 B=0 first=6c7b7d1611628999 dlv=cbf29ce484222325",
		"slow-set(fair)/p=63":  "w=780 m=5394 σ=19 steps=812 msgs=5394 B=86304 first=ff523e2b3b96e250 dlv=c5665cc84f90857f",
		"slow-set(fair)/p=64":  "w=800 m=6300 σ=19 steps=832 msgs=6300 B=100800 first=62224921ce83dd28 dlv=d07d7d4dae29b383",
		"slow-set(fair)/p=65":  "w=902 m=6784 σ=21 steps=964 msgs=6784 B=108544 first=495ddedd6011a118 dlv=60244b60fb982ff9",
		"slow-set(fair)/p=256": "w=4096 m=113985 σ=24 steps=4096 msgs=113985 B=4124880 first=668d32d403539816 dlv=617400e3dfa48cbb",
		"stage-online/p=1":     "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 dlv=cbf29ce484222325",
		"stage-online/p=63":    "w=845 m=7068 σ=15 steps=845 msgs=7068 B=113088 first=32d8ab2a1917d86b dlv=5789b5d7fbd35bce",
		"stage-online/p=64":    "w=1052 m=8316 σ=18 steps=1052 msgs=8316 B=133056 first=af147bf8dce7c680 dlv=3bebd3bebada1fb2",
		"stage-online/p=65":    "w=1053 m=8384 σ=18 steps=1053 msgs=8384 B=134144 first=3d5af858ceccec33 dlv=57d03ff4f80cc025",
		"stage-online/p=256":   "w=5041 m=146115 σ=21 steps=5041 msgs=146115 B=5001570 first=8816aad71acbb266 dlv=9fb07dd9e40ecbd5",
	}
	da := map[string]string{
		"fair/q=2/p=63":       "w=1071 m=3968 σ=16 steps=1258 msgs=3968 B=99200 first=a60ecf35fa071655 dlv=5094d8bcaaee2785",
		"fair/q=2/p=256":      "w=4096 m=65280 σ=15 steps=4096 msgs=65280 B=3319845 first=e180b6b13fad8e68 dlv=2382a586cc582925",
		"fair/q=3/p=63":       "w=1134 m=5890 σ=17 steps=1134 msgs=5890 B=147250 first=5dbfa1fdc7ac06cb dlv=044f8f116f18a085",
		"fair/q=3/p=256":      "w=3328 m=65280 σ=12 steps=3328 msgs=65280 B=2773635 first=dbac6154b1b363e3 dlv=a4ffc54930b6e9e5",
		"fair/q=8/p=63":       "w=1008 m=7316 σ=15 steps=1128 msgs=7316 B=152210 first=37d38dd0919e410b dlv=b700ad0c120e7d6d",
		"fair/q=8/p=256":      "w=10752 m=290700 σ=41 steps=10752 msgs=290700 B=15790365 first=ae22066361a897eb dlv=1efaf8dc7862e665",
		"fair/q=65/p=63":      "w=1071 m=7812 σ=16 steps=1071 msgs=7812 B=160146 first=947dbb2acbaa9402 dlv=c1b8416aa6a3f6a5",
		"fair/q=65/p=256":     "w=30720 m=1194165 σ=119 steps=30720 msgs=1194165 B=84166065 first=cfd5dc623dccdb79 dlv=7a8e1d37be6f4855",
		"crashing/q=2/p=63":   "w=1203 m=3968 σ=19 steps=1203 msgs=3968 B=99200 first=9c290068edbb2c09 dlv=a1e0ad84b4a721e8",
		"crashing/q=2/p=256":  "w=5562 m=65280 σ=21 steps=5562 msgs=65280 B=3340500 first=8c8ea234c9bcbb70 dlv=f9439f6993b46adc",
		"crashing/q=3/p=63":   "w=1089 m=5890 σ=17 steps=1089 msgs=5890 B=147250 first=f9187a0f57ff7f4d dlv=c9bf62d647216835",
		"crashing/q=3/p=256":  "w=3306 m=64770 σ=12 steps=3306 msgs=64770 B=2751195 first=dbac6154b1b363e3 dlv=e9748d19e950a324",
		"crashing/q=8/p=63":   "w=1089 m=7440 σ=17 steps=1089 msgs=7440 B=153078 first=69feb204a40ef58b dlv=c666b912e48bf18c",
		"crashing/q=8/p=256":  "w=10963 m=307020 σ=43 steps=10963 msgs=307020 B=16331730 first=21b932f194b306ab dlv=b34227e2018dc729",
		"crashing/q=65/p=63":  "w=1031 m=7502 σ=16 steps=1031 msgs=7502 B=154628 first=7b0c94e2bbbb2588 dlv=203a81431f8b9cfb",
		"crashing/q=65/p=256": "w=28380 m=1102875 σ=119 steps=28380 msgs=1102875 B=80303070 first=cfd5dc623dccdb79 dlv=d989fea6bc6b0ab3",
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
	for _, adv := range []string{"fair", "crashing"} {
		for _, q := range []int{2, 3, 8, 65} {
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
