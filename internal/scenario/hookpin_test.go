package scenario

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"doall/internal/sim"
)

// hookStream is an observer hashing every hook call with its arguments,
// in callback order. Payloads enter the hash through their wire size.
type hookStream struct {
	h hash.Hash64
	n int
}

func (o *hookStream) put(tag int64, vs ...int64) {
	o.n++
	hashInt(o.h, tag)
	for _, v := range vs {
		hashInt(o.h, v)
	}
}

func wire(payload any) int64 {
	if p, ok := payload.(sim.Payload); ok {
		return int64(p.WireSize())
	}
	return -1
}

func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (o *hookStream) OnStep(pid int, now int64, r *sim.StepResult) {
	// The 0 stands where the step's point-to-point send count was hashed
	// before that path was removed, so the recorded digests still match.
	o.put(1, int64(pid), now, int64(r.PerformedTask()), wire(r.Broadcast), 0, flag(r.Halt))
}

func (o *hookStream) OnMulticast(from int, now int64, payload any, recipients int) {
	o.put(2, int64(from), now, wire(payload), int64(recipients))
}

func (o *hookStream) OnDeliver(m sim.Message) {
	o.put(3, int64(m.From), int64(m.To), m.SentAt, m.DeliverAt, wire(m.Payload))
}

func (o *hookStream) OnCrash(pid int, now int64)  { o.put(4, int64(pid), now) }
func (o *hookStream) OnRevive(pid int, now int64) { o.put(5, int64(pid), now) }

func (o *hookStream) OnOmit(from, to int, sentAt int64) {
	o.put(6, int64(from), int64(to), sentAt)
}

func (o *hookStream) OnSolved(now int64, res *sim.Result) {
	o.put(7, now, res.Work, res.Messages, res.TotalSteps, res.TotalMessages)
}

// TestObserverHookStreamPins pins the complete observer callback stream —
// every hook, its arguments and its position — together with the
// observed run's result digest, at shards 1, 2 and 7. The digests were
// recorded before observed runs moved onto the grouped delivery path and
// the staged step finish, so they hold the stream to the order the
// per-step engine produced: deliveries in bucket order and then by
// ascending live recipient, and per step OnStep, then OnOmit for each
// dropped copy, then OnMulticast.
func TestObserverHookStreamPins(t *testing.T) {
	pins := map[string]string{
		"DA/fair/p=1":                  "w=7 m=0 σ=6 steps=8 msgs=0 B=0 first=8e0ce641141d6c82 hooks=9/42dc0837fdb49c52",
		"DA/fair/p=5":                  "w=85 m=40 σ=16 steps=85 msgs=40 B=640 first=da678df670a707c7 hooks=128/7d5c3b5e66751285",
		"DA/fair/p=64":                 "w=896 m=4032 σ=13 steps=896 msgs=4032 B=100800 first=e877a2aa1fc3168f hooks=4993/59c78ce726d6d537",
		"DA/random/p=1":                "w=7 m=0 σ=6 steps=8 msgs=0 B=0 first=8e0ce641141d6c82 hooks=9/42dc0837fdb49c52",
		"DA/random/p=5":                "w=79 m=28 σ=20 steps=82 msgs=28 B=448 first=2c3e3a1e6b149cbf hooks=117/cf44fa6593b21a6b",
		"DA/random/p=64":               "w=966 m=3402 σ=19 steps=1026 msgs=3402 B=85050 first=baa03610c48d5e1c hooks=4483/c68cdecc28a7e2d3",
		"DA/crashing/p=1":              "w=7 m=0 σ=6 steps=8 msgs=0 B=0 first=8e0ce641141d6c82 hooks=9/42dc0837fdb49c52",
		"DA/crashing/p=5":              "w=60 m=28 σ=16 steps=60 msgs=28 B=448 first=ebe6c2a91e00164d hooks=85/685a89889f994b53",
		"DA/crashing/p=64":             "w=1223 m=4032 σ=19 steps=1223 msgs=4032 B=100800 first=17505c9d280afcd3 hooks=5068/6a8c7dde7600a528",
		"DA/restarting/p=1":            "w=7 m=0 σ=6 steps=8 msgs=0 B=0 first=8e0ce641141d6c82 hooks=9/42dc0837fdb49c52",
		"DA/restarting/p=5":            "w=62 m=28 σ=16 steps=62 msgs=28 B=448 first=ebe6c2a91e00164d hooks=91/146c6ce3615f7a9e",
		"DA/restarting/p=64":           "w=1230 m=4032 σ=19 steps=1230 msgs=4032 B=100800 first=17505c9d280afcd3 hooks=5083/5d16780bfcd59a5b",
		"DA/omitting(fair)/p=1":        "w=7 m=0 σ=6 steps=8 msgs=0 B=0 first=8e0ce641141d6c82 hooks=9/42dc0837fdb49c52",
		"DA/omitting(fair)/p=5":        "w=85 m=40 σ=16 steps=85 msgs=40 B=640 first=da678df670a707c7 hooks=132/bb0700e5363a9d20",
		"DA/omitting(fair)/p=64":       "w=1280 m=4158 σ=19 steps=1280 msgs=4158 B=103950 first=e877a2aa1fc3168f hooks=5505/bb90879807bc8d0c",
		"DA/slow-set(fair)/p=1":        "w=7 m=0 σ=24 steps=8 msgs=0 B=0 first=6c7b7d1611628999 hooks=9/946fe6717bcf9e9c",
		"DA/slow-set(fair)/p=5":        "w=75 m=28 σ=26 steps=85 msgs=32 B=448 first=8282bb3bc848905e hooks=125/7c6ac8a7a87a4ce6",
		"DA/slow-set(fair)/p=64":       "w=800 m=4032 σ=19 steps=832 msgs=4032 B=100800 first=f7770c31b9c25d34 hooks=4929/655dd6c73ac7f879",
		"DA/stage-online/p=1":          "w=7 m=0 σ=6 steps=8 msgs=0 B=0 first=8e0ce641141d6c82 hooks=9/42dc0837fdb49c52",
		"DA/stage-online/p=5":          "w=70 m=28 σ=16 steps=79 msgs=36 B=448 first=9d20fc0eddfad011 hooks=123/5f5ed6dd8cd6bf89",
		"DA/stage-online/p=64":         "w=1080 m=4032 σ=18 steps=1080 msgs=4032 B=100800 first=b98a807d074a744b hooks=5177/e2498a896c900d41",
		"DA/stage-det/p=1":             "w=7 m=0 σ=6 steps=8 msgs=0 B=0 first=8e0ce641141d6c82 hooks=9/42dc0837fdb49c52",
		"DA/stage-det/p=5":             "w=80 m=40 σ=15 steps=80 msgs=40 B=640 first=da678df670a707c7 hooks=131/594cd035eb9438b7",
		"DA/stage-det/p=64":            "w=832 m=4032 σ=12 steps=832 msgs=4032 B=100800 first=e877a2aa1fc3168f hooks=4929/9e419e2bc20e89e6",
		"PaRan1/fair/p=1":              "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan1/fair/p=5":              "w=50 m=28 σ=9 steps=56 msgs=40 B=448 first=de81494ba5add8c7 hooks=87/cec4a1b709af34cb",
		"PaRan1/fair/p=64":             "w=960 m=8064 σ=14 steps=960 msgs=8064 B=129024 first=7f561c01bf53fe40 hooks=9153/c8c495855dd7ecf2",
		"PaRan1/random/p=1":            "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan1/random/p=5":            "w=49 m=36 σ=13 steps=51 msgs=36 B=576 first=93102f3e8c5ea3a7 hooks=89/5636318d465632aa",
		"PaRan1/random/p=64":           "w=679 m=4725 σ=13 steps=765 msgs=4788 B=75600 first=0e01cef61985974e hooks=5552/51216d3fa1ad9fa3",
		"PaRan1/crashing/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan1/crashing/p=5":          "w=48 m=28 σ=12 steps=48 msgs=28 B=448 first=3cb03f9e12326c21 hooks=72/06b87af92dd62524",
		"PaRan1/crashing/p=64":         "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=60ea3d3f079a7a66 hooks=8526/d171493c43729255",
		"PaRan1/restarting/p=1":        "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan1/restarting/p=5":        "w=48 m=28 σ=12 steps=48 msgs=28 B=448 first=3cb03f9e12326c21 hooks=72/06b87af92dd62524",
		"PaRan1/restarting/p=64":       "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=60ea3d3f079a7a66 hooks=8526/d171493c43729255",
		"PaRan1/omitting(fair)/p=1":    "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan1/omitting(fair)/p=5":    "w=60 m=40 σ=11 steps=64 msgs=40 B=640 first=de81494ba5add8c7 hooks=105/32ace77446ca9c0a",
		"PaRan1/omitting(fair)/p=64":   "w=960 m=8064 σ=14 steps=960 msgs=8064 B=129024 first=7f561c01bf53fe40 hooks=9153/f8a8b40c1ae20c2d",
		"PaRan1/slow-set(fair)/p=1":    "w=7 m=0 σ=24 steps=7 msgs=0 B=0 first=6c7b7d1611628999 hooks=8/4c5cc02351882291",
		"PaRan1/slow-set(fair)/p=5":    "w=38 m=20 σ=12 steps=38 msgs=20 B=320 first=47bc06867b17514e hooks=64/948f8583af986049",
		"PaRan1/slow-set(fair)/p=64":   "w=800 m=6300 σ=19 steps=832 msgs=6300 B=100800 first=7689f4f0e3ecd3f8 hooks=6918/6c0b5766176e76c9",
		"PaRan1/stage-online/p=1":      "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan1/stage-online/p=5":      "w=51 m=32 σ=12 steps=51 msgs=32 B=512 first=d17910dd66f856a8 hooks=92/ab0e23582a11a4f1",
		"PaRan1/stage-online/p=64":     "w=1088 m=8694 σ=18 steps=1088 msgs=8694 B=139104 first=e6860d5ec23ede3c hooks=9921/5cc4adb1564c636c",
		"PaRan1/stage-det/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan1/stage-det/p=5":         "w=50 m=28 σ=9 steps=53 msgs=40 B=448 first=de81494ba5add8c7 hooks=84/5c8837ce70d6b349",
		"PaRan1/stage-det/p=64":        "w=832 m=8064 σ=12 steps=832 msgs=8064 B=129024 first=8c48fa941dd0e060 hooks=9025/2285a071f9df7522",
		"PaRan2/fair/p=1":              "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan2/fair/p=5":              "w=40 m=24 σ=7 steps=50 msgs=32 B=384 first=f807cd31cbd5a681 hooks=81/2bbc4481463658b6",
		"PaRan2/fair/p=64":             "w=960 m=8190 σ=14 steps=1129 msgs=9261 B=131040 first=576ef310d46b5649 hooks=9431/c6cb042d027a0f14",
		"PaRan2/random/p=1":            "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan2/random/p=5":            "w=33 m=20 σ=8 steps=42 msgs=20 B=320 first=64630f09d11fcbce hooks=68/fa10b5a9ebeb510f",
		"PaRan2/random/p=64":           "w=727 m=4662 σ=14 steps=813 msgs=4725 B=74592 first=182bd12c5ef9e22f hooks=5561/90523b1612101619",
		"PaRan2/crashing/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan2/crashing/p=5":          "w=39 m=28 σ=9 steps=41 msgs=32 B=448 first=3f670eba36f32107 hooks=65/3d160012aa3324fc",
		"PaRan2/crashing/p=64":         "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=9b1abc7a1edf92e4 hooks=8520/fad0b1b424cea7b5",
		"PaRan2/restarting/p=1":        "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan2/restarting/p=5":        "w=39 m=28 σ=9 steps=41 msgs=32 B=448 first=3f670eba36f32107 hooks=65/3d160012aa3324fc",
		"PaRan2/restarting/p=64":       "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=9b1abc7a1edf92e4 hooks=8520/fad0b1b424cea7b5",
		"PaRan2/omitting(fair)/p=1":    "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan2/omitting(fair)/p=5":    "w=40 m=24 σ=7 steps=52 msgs=40 B=384 first=f807cd31cbd5a681 hooks=91/ddc060e9159c7b33",
		"PaRan2/omitting(fair)/p=64":   "w=960 m=8064 σ=14 steps=960 msgs=8064 B=129024 first=8db03499e4f35b80 hooks=9153/213720f0799bf553",
		"PaRan2/slow-set(fair)/p=1":    "w=7 m=0 σ=24 steps=7 msgs=0 B=0 first=6c7b7d1611628999 hooks=8/4c5cc02351882291",
		"PaRan2/slow-set(fair)/p=5":    "w=44 m=24 σ=15 steps=51 msgs=28 B=384 first=e4382bd9619544a4 hooks=84/7d38fa06310a1c51",
		"PaRan2/slow-set(fair)/p=64":   "w=800 m=6300 σ=19 steps=832 msgs=6300 B=100800 first=62224921ce83dd28 hooks=6729/dd9b87435f3618fa",
		"PaRan2/stage-online/p=1":      "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan2/stage-online/p=5":      "w=51 m=36 σ=10 steps=58 msgs=40 B=576 first=add5367454b47b0e hooks=107/eefc233c55f5eeb7",
		"PaRan2/stage-online/p=64":     "w=1052 m=8316 σ=18 steps=1052 msgs=8316 B=133056 first=af147bf8dce7c680 hooks=9501/644b5421a23d7bcb",
		"PaRan2/stage-det/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaRan2/stage-det/p=5":         "w=40 m=24 σ=7 steps=48 msgs=24 B=384 first=f807cd31cbd5a681 hooks=79/d9d7e6e5adb882d7",
		"PaRan2/stage-det/p=64":        "w=960 m=8190 σ=14 steps=1022 msgs=8190 B=131040 first=642bb7458438ce24 hooks=9341/3b6db054cfdfe530",
		"PaDet/fair/p=1":               "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaDet/fair/p=5":               "w=40 m=20 σ=7 steps=40 msgs=20 B=320 first=f92a9dec9d626686 hooks=66/efafe1a018f63ea3",
		"PaDet/fair/p=64":              "w=960 m=8064 σ=14 steps=960 msgs=8064 B=129024 first=8749a0defe0f29cd hooks=9153/b600e389e0660b06",
		"PaDet/random/p=1":             "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaDet/random/p=5":             "w=34 m=20 σ=8 steps=42 msgs=24 B=320 first=1a4107b3fcc5852c hooks=71/caa5325360cb457a",
		"PaDet/random/p=64":            "w=769 m=4977 σ=15 steps=838 msgs=5040 B=79632 first=520c27e3998b59e5 hooks=5829/75c8ec0a013816fb",
		"PaDet/crashing/p=1":           "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaDet/crashing/p=5":           "w=33 m=20 σ=7 steps=38 msgs=24 B=320 first=3e581da69b4dcb60 hooks=58/815fc6b34379638b",
		"PaDet/crashing/p=64":          "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=44945c625117f5a9 hooks=8524/04898525f783983b",
		"PaDet/restarting/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaDet/restarting/p=5":         "w=33 m=20 σ=7 steps=38 msgs=24 B=320 first=3e581da69b4dcb60 hooks=58/815fc6b34379638b",
		"PaDet/restarting/p=64":        "w=930 m=7812 σ=14 steps=930 msgs=7812 B=124992 first=44945c625117f5a9 hooks=8524/04898525f783983b",
		"PaDet/omitting(fair)/p=1":     "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaDet/omitting(fair)/p=5":     "w=40 m=24 σ=7 steps=48 msgs=28 B=384 first=f92a9dec9d626686 hooks=78/491012598dcffceb",
		"PaDet/omitting(fair)/p=64":    "w=960 m=8064 σ=14 steps=960 msgs=8064 B=129024 first=8749a0defe0f29cd hooks=9153/f00c68795e600e1b",
		"PaDet/slow-set(fair)/p=1":     "w=7 m=0 σ=24 steps=7 msgs=0 B=0 first=6c7b7d1611628999 hooks=8/4c5cc02351882291",
		"PaDet/slow-set(fair)/p=5":     "w=55 m=32 σ=19 steps=58 msgs=32 B=512 first=e222d5e261b1da9e hooks=99/86e1857f6eb2c45c",
		"PaDet/slow-set(fair)/p=64":    "w=800 m=6426 σ=19 steps=926 msgs=6426 B=102816 first=3524fbb4e435a0bd hooks=7451/0aaa115aacf55dbb",
		"PaDet/stage-online/p=1":       "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaDet/stage-online/p=5":       "w=44 m=32 σ=9 steps=44 msgs=32 B=512 first=c3b5a309f8328fe4 hooks=85/71ec48a6032186f1",
		"PaDet/stage-online/p=64":      "w=998 m=8757 σ=18 steps=1153 msgs=9450 B=140112 first=05bc5778f1bac6c3 hooks=10514/1f2c9c644a47a38f",
		"PaDet/stage-det/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/0b0bd94153d35784",
		"PaDet/stage-det/p=5":          "w=35 m=20 σ=6 steps=35 msgs=20 B=320 first=f92a9dec9d626686 hooks=61/d8a547008bd50316",
		"PaDet/stage-det/p=64":         "w=832 m=8064 σ=12 steps=832 msgs=8064 B=129024 first=ebee4eaad0f59c60 hooks=9025/9f2ba0a81bd58a7b",
		"AllToAll/fair/p=1":            "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/720bc9498ea5f20c",
		"AllToAll/fair/p=5":            "w=115 m=0 σ=22 steps=115 msgs=0 B=0 first=f92a9dec9d626686 hooks=116/0027568fe71696c8",
		"AllToAll/fair/p=64":           "w=16576 m=0 σ=258 steps=16576 msgs=0 B=0 first=f2c3314a5f14e101 hooks=16577/231f5cad49543fa7",
		"AllToAll/random/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/720bc9498ea5f20c",
		"AllToAll/random/p=5":          "w=97 m=0 σ=25 steps=115 msgs=0 B=0 first=cc8eac09cd1d2fa0 hooks=116/f1104c275b136497",
		"AllToAll/random/p=64":         "w=15582 m=0 σ=323 steps=16576 msgs=0 B=0 first=ccfc909f6d8804ea hooks=16577/a3a90b4aeb84fa1b",
		"AllToAll/crashing/p=1":        "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/720bc9498ea5f20c",
		"AllToAll/crashing/p=5":        "w=78 m=0 σ=22 steps=78 msgs=0 B=0 first=7cd133cb89db71a0 hooks=81/33ab05591a827272",
		"AllToAll/crashing/p=64":       "w=10035 m=0 σ=258 steps=10035 msgs=0 B=0 first=f2c3314a5f14e101 hooks=10067/3133234066dadd8f",
		"AllToAll/restarting/p=1":      "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/720bc9498ea5f20c",
		"AllToAll/restarting/p=5":      "w=91 m=0 σ=22 steps=124 msgs=0 B=0 first=7cd133cb89db71a0 hooks=129/b12e27cf15b660b8",
		"AllToAll/restarting/p=64":     "w=16204 m=0 σ=258 steps=18064 msgs=0 B=0 first=f2c3314a5f14e101 hooks=18127/d23cc37a46867856",
		"AllToAll/omitting(fair)/p=1":  "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/720bc9498ea5f20c",
		"AllToAll/omitting(fair)/p=5":  "w=115 m=0 σ=22 steps=115 msgs=0 B=0 first=f92a9dec9d626686 hooks=116/0027568fe71696c8",
		"AllToAll/omitting(fair)/p=64": "w=16576 m=0 σ=258 steps=16576 msgs=0 B=0 first=f2c3314a5f14e101 hooks=16577/231f5cad49543fa7",
		"AllToAll/slow-set(fair)/p=1":  "w=7 m=0 σ=24 steps=7 msgs=0 B=0 first=6c7b7d1611628999 hooks=8/9d83da6f37330f09",
		"AllToAll/slow-set(fair)/p=5":  "w=64 m=0 σ=22 steps=115 msgs=0 B=0 first=5fd0e8a75ce46d05 hooks=116/5dd5b0fc27584e13",
		"AllToAll/slow-set(fair)/p=64": "w=10368 m=0 σ=258 steps=16576 msgs=0 B=0 first=27ef1d00c561c359 hooks=16577/984dc3ada5f07bef",
		"AllToAll/stage-online/p=1":    "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/720bc9498ea5f20c",
		"AllToAll/stage-online/p=5":    "w=109 m=0 σ=22 steps=115 msgs=0 B=0 first=c3b5a309f8328fe4 hooks=116/3917768c8c37586e",
		"AllToAll/stage-online/p=64":   "w=16511 m=0 σ=258 steps=16576 msgs=0 B=0 first=e5199df1f42b670e hooks=16577/6b2bd85978e7218f",
		"AllToAll/stage-det/p=1":       "w=7 m=0 σ=6 steps=7 msgs=0 B=0 first=8e0ce641141d6c82 hooks=8/720bc9498ea5f20c",
		"AllToAll/stage-det/p=5":       "w=115 m=0 σ=22 steps=115 msgs=0 B=0 first=f92a9dec9d626686 hooks=116/0027568fe71696c8",
		"AllToAll/stage-det/p=64":      "w=16558 m=0 σ=258 steps=16576 msgs=0 B=0 first=fdef5ed00392ad05 hooks=16577/43f495f3a552e143",
	}
	for _, algo := range []string{AlgoDA, AlgoPaRan1, AlgoPaRan2, AlgoPaDet, AlgoAllToAll} {
		for _, adv := range []string{"fair", "random", "crashing", "restarting", "omitting(fair)", "slow-set(fair)", "stage-online", "stage-det"} {
			for _, p := range []int{1, 5, 64} {
				key := fmt.Sprintf("%s/%s/p=%d", algo, adv, p)
				t.Run(key, func(t *testing.T) {
					sc := Scenario{Algorithm: algo, Adversary: adv, P: p, T: 4*p + 3, D: 3, Seed: 11, MaxSteps: 1 << 16}
					for _, shards := range []int{1, 2, 7} {
						sc.Shards = shards
						obs := &hookStream{h: fnv.New64a()}
						res, err := RunWith(sc, Options{Observer: obs})
						if err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						got := fmt.Sprintf("%s hooks=%d/%016x", kernelDigest(res.Sim), obs.n, obs.h.Sum64())
						if got != pins[key] {
							t.Errorf("shards=%d:\n got %s\nwant %s", shards, got, pins[key])
						}
					}
				})
			}
		}
	}
}

// TestStageDetPins pins Theorem 3.1's off-line adversary, which clones
// every live machine with its pending deliveries (View.Inbox) to look a
// stage ahead, at shards 1 and 4. The digests were recorded while the
// adversary still read per-recipient inboxes on the eager delivery path.
func TestStageDetPins(t *testing.T) {
	pins := map[string]string{
		"DA/p=16":      "w=1104 m=240 σ=68 steps=1104 msgs=240 B=3840 first=027b127908890325",
		"DA/p=64":      "w=1600 m=4032 σ=24 steps=1600 msgs=4032 B=64512 first=35c4c9512052a325",
		"DA/p=256":     "w=4264 m=65280 σ=16 steps=4264 msgs=65280 B=1463190 first=e1725e6ba59cad25",
		"PaRan1/p=16":  "w=2064 m=480 σ=128 steps=2064 msgs=480 B=7680 first=fbc5c204d47f0325",
		"PaRan1/p=64":  "w=2112 m=8064 σ=32 steps=2112 msgs=8064 B=129024 first=0496d170ebfd9325",
		"PaRan1/p=256": "w=4024 m=256530 σ=15 steps=4024 msgs=256530 B=8973960 first=3555859840233025",
		"PaDet/p=16":   "w=3072 m=720 σ=191 steps=3072 msgs=720 B=11520 first=8d6a9a49e24b8b25",
		"PaDet/p=64":   "w=3072 m=12096 σ=47 steps=3072 msgs=12096 B=193536 first=2f8a83861efa5225",
		"PaDet/p=256":  "w=3988 m=254235 σ=15 steps=3988 msgs=254235 B=9343455 first=d4dbe1c4ce31ca25",
	}
	for _, algo := range []string{AlgoDA, AlgoPaRan1, AlgoPaDet} {
		for _, p := range []int{16, 64, 256} {
			key := fmt.Sprintf("%s/p=%d", algo, p)
			t.Run(key, func(t *testing.T) {
				sc := Scenario{Algorithm: algo, Adversary: AdvStageDet, P: p, T: 1024, D: 4, Seed: 9, MaxSteps: 1 << 16}
				for _, shards := range []int{1, 4} {
					sc.Shards = shards
					res, err := Run(sc)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					if got := kernelDigest(res.Sim); got != pins[key] {
						t.Errorf("shards=%d:\n got %s\nwant %s", shards, got, pins[key])
					}
				}
			})
		}
	}
}

// TestStageAdversaryPins pins both lower-bound adversaries at the
// benchmark's stage shapes (t = 2^16, d = 8, seed 7) at shards 1 and 2,
// where stage planning selects among tens of thousands of undone tasks.
// The digests were recorded before the stage selection stopped sorting
// every undone task.
func TestStageAdversaryPins(t *testing.T) {
	pins := map[string]string{
		"DA/stage-online/p=256":      "w=77149 m=65280 σ=304 steps=77149 msgs=65280 B=1559580 first=38af5d4dfe2c10e6",
		"DA/stage-online/p=1024":     "w=112581 m=1047552 σ=112 steps=112581 msgs=1047552 B=47666685 first=4d2d4b32e7124569",
		"PaRan2/stage-online/p=256":  "w=195366 m=159375 σ=768 steps=195366 msgs=159375 B=5504685 first=38ab1f4c12a32775",
		"PaRan2/stage-online/p=1024": "w=193589 m=2440878 σ=192 steps=193589 msgs=2440878 B=235416852 first=6b3982062ad5c666",
		"DA/stage-det/p=256":         "w=67840 m=65280 σ=264 steps=67840 msgs=65280 B=1109760 first=8555f151b4be2b25",
		"DA/stage-det/p=1024":        "w=82944 m=1047552 σ=80 steps=82944 msgs=1047552 B=17808384 first=9e8d6d56a3fa2325",
	}
	cells := []struct{ algo, adv string }{
		{AlgoDA, AdvStageOnline}, {AlgoPaRan2, AdvStageOnline}, {AlgoDA, AdvStageDet},
	}
	for _, c := range cells {
		for _, p := range []int{256, 1024} {
			key := fmt.Sprintf("%s/%s/p=%d", c.algo, c.adv, p)
			t.Run(key, func(t *testing.T) {
				sc := Scenario{Algorithm: c.algo, Adversary: c.adv, P: p, T: 1 << 16, D: 8, Seed: 7}
				for _, shards := range []int{1, 2} {
					sc.Shards = shards
					res, err := Run(sc)
					if err != nil {
						t.Fatalf("shards=%d: %v", shards, err)
					}
					if got := kernelDigest(res.Sim); got != pins[key] {
						t.Errorf("shards=%d:\n got %s\nwant %s", shards, got, pins[key])
					}
				}
			})
		}
	}
}
