package scenario

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"doall/internal/core"
	"doall/internal/sim"
)

// hookStream is an observer hashing every hook call with its arguments,
// in callback order. Payloads enter the hash through their snapshot
// identity (version and bit length), which tells apart different
// snapshots of one sender.
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

// snapID returns a knowledge payload's snapshot version and bit length,
// or (-1, -1) for any other payload.
func snapID(payload any) (ver, n int64) {
	switch p := payload.(type) {
	case core.DoneSet:
		return p.S.Ver(), int64(p.S.Len())
	case core.TreeSnapshot:
		return p.S.Ver(), int64(p.S.Len())
	}
	return -1, -1
}

func flag(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (o *hookStream) OnStep(pid int, now int64, r *sim.StepResult) {
	ver, n := snapID(r.Broadcast)
	o.put(1, int64(pid), now, int64(r.PerformedTask()), ver, n, flag(r.Halt))
}

func (o *hookStream) OnMulticast(from int, now int64, payload any, recipients int) {
	ver, n := snapID(payload)
	o.put(2, int64(from), now, ver, n, int64(recipients))
}

func (o *hookStream) OnDeliver(m sim.Message) {
	ver, n := snapID(m.Payload)
	o.put(3, int64(m.From), int64(m.To), m.SentAt, m.DeliverAt, ver, n)
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
// observed run's result digest, at shards 1, 2 and 7. The stream is the
// order the per-step engine produced: deliveries in bucket order and then
// by ascending live recipient, and per step OnStep, then OnOmit for each
// dropped copy, then OnMulticast. The result digests were recorded on
// that engine, before observed runs moved onto the grouped delivery path
// and the staged step finish. The hooks= digests were re-recorded when
// payloads began to enter the hash by snapshot identity instead of wire
// size, from an engine that still matched the per-step-era digests.
func TestObserverHookStreamPins(t *testing.T) {
	pins := map[string]string{
		"DA/fair/p=1":                  "w=7 m=0 σ=6 steps=8 msgs=0 first=8e0ce641141d6c82 hooks=9/d328f707921c7dca",
		"DA/fair/p=5":                  "w=85 m=40 σ=16 steps=85 msgs=40 first=da678df670a707c7 hooks=128/94ff78b2bb7f313d",
		"DA/fair/p=64":                 "w=896 m=4032 σ=13 steps=896 msgs=4032 first=e877a2aa1fc3168f hooks=4993/8dc96c1b82980c37",
		"DA/random/p=1":                "w=7 m=0 σ=6 steps=8 msgs=0 first=8e0ce641141d6c82 hooks=9/d328f707921c7dca",
		"DA/random/p=5":                "w=79 m=28 σ=20 steps=82 msgs=28 first=2c3e3a1e6b149cbf hooks=117/d0938caaf2bf56ee",
		"DA/random/p=64":               "w=966 m=3402 σ=19 steps=1026 msgs=3402 first=baa03610c48d5e1c hooks=4483/bcc19a2d48479320",
		"DA/crashing/p=1":              "w=7 m=0 σ=6 steps=8 msgs=0 first=8e0ce641141d6c82 hooks=9/d328f707921c7dca",
		"DA/crashing/p=5":              "w=60 m=28 σ=16 steps=60 msgs=28 first=ebe6c2a91e00164d hooks=85/ae5f2c524f20cc65",
		"DA/crashing/p=64":             "w=1223 m=4032 σ=19 steps=1223 msgs=4032 first=17505c9d280afcd3 hooks=5068/b02a5d1327cda6f3",
		"DA/restarting/p=1":            "w=7 m=0 σ=6 steps=8 msgs=0 first=8e0ce641141d6c82 hooks=9/d328f707921c7dca",
		"DA/restarting/p=5":            "w=62 m=28 σ=16 steps=62 msgs=28 first=ebe6c2a91e00164d hooks=91/fb9a40fc8d6a9305",
		"DA/restarting/p=64":           "w=1230 m=4032 σ=19 steps=1230 msgs=4032 first=17505c9d280afcd3 hooks=5083/44139da1ea127700",
		"DA/omitting(fair)/p=1":        "w=7 m=0 σ=6 steps=8 msgs=0 first=8e0ce641141d6c82 hooks=9/d328f707921c7dca",
		"DA/omitting(fair)/p=5":        "w=85 m=40 σ=16 steps=85 msgs=40 first=da678df670a707c7 hooks=132/4857ee81787c30c8",
		"DA/omitting(fair)/p=64":       "w=1280 m=4158 σ=19 steps=1280 msgs=4158 first=e877a2aa1fc3168f hooks=5505/b66143a952b2350c",
		"DA/slow-set(fair)/p=1":        "w=7 m=0 σ=24 steps=8 msgs=0 first=6c7b7d1611628999 hooks=9/ebefcee3e818b804",
		"DA/slow-set(fair)/p=5":        "w=75 m=28 σ=26 steps=85 msgs=32 first=8282bb3bc848905e hooks=125/eb1bc88ecd23af25",
		"DA/slow-set(fair)/p=64":       "w=800 m=4032 σ=19 steps=832 msgs=4032 first=f7770c31b9c25d34 hooks=4929/f4fb7ebcb306adb9",
		"DA/stage-online/p=1":          "w=7 m=0 σ=6 steps=8 msgs=0 first=8e0ce641141d6c82 hooks=9/d328f707921c7dca",
		"DA/stage-online/p=5":          "w=70 m=28 σ=16 steps=79 msgs=36 first=9d20fc0eddfad011 hooks=123/77ea81b5c8bc01d9",
		"DA/stage-online/p=64":         "w=1080 m=4032 σ=18 steps=1080 msgs=4032 first=b98a807d074a744b hooks=5177/448dc5907be112d1",
		"DA/stage-det/p=1":             "w=7 m=0 σ=6 steps=8 msgs=0 first=8e0ce641141d6c82 hooks=9/d328f707921c7dca",
		"DA/stage-det/p=5":             "w=80 m=40 σ=15 steps=80 msgs=40 first=da678df670a707c7 hooks=131/857bdbe042aab537",
		"DA/stage-det/p=64":            "w=832 m=4032 σ=12 steps=832 msgs=4032 first=e877a2aa1fc3168f hooks=4929/846c7b62a4f2e6e6",
		"PaRan1/fair/p=1":              "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan1/fair/p=5":              "w=50 m=28 σ=9 steps=56 msgs=40 first=de81494ba5add8c7 hooks=87/e7a88db57b47f4db",
		"PaRan1/fair/p=64":             "w=960 m=8064 σ=14 steps=960 msgs=8064 first=7f561c01bf53fe40 hooks=9153/c3aa386e2d8380b2",
		"PaRan1/random/p=1":            "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan1/random/p=5":            "w=49 m=36 σ=13 steps=51 msgs=36 first=93102f3e8c5ea3a7 hooks=89/3bd2b2893e5a9f3a",
		"PaRan1/random/p=64":           "w=679 m=4725 σ=13 steps=765 msgs=4788 first=0e01cef61985974e hooks=5552/1b4c5988cb912a44",
		"PaRan1/crashing/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan1/crashing/p=5":          "w=48 m=28 σ=12 steps=48 msgs=28 first=3cb03f9e12326c21 hooks=72/cf1d34f661807bcc",
		"PaRan1/crashing/p=64":         "w=930 m=7812 σ=14 steps=930 msgs=7812 first=60ea3d3f079a7a66 hooks=8526/9567a9fa94449828",
		"PaRan1/restarting/p=1":        "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan1/restarting/p=5":        "w=48 m=28 σ=12 steps=48 msgs=28 first=3cb03f9e12326c21 hooks=72/cf1d34f661807bcc",
		"PaRan1/restarting/p=64":       "w=930 m=7812 σ=14 steps=930 msgs=7812 first=60ea3d3f079a7a66 hooks=8526/9567a9fa94449828",
		"PaRan1/omitting(fair)/p=1":    "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan1/omitting(fair)/p=5":    "w=60 m=40 σ=11 steps=64 msgs=40 first=de81494ba5add8c7 hooks=105/9b5098869361261a",
		"PaRan1/omitting(fair)/p=64":   "w=960 m=8064 σ=14 steps=960 msgs=8064 first=7f561c01bf53fe40 hooks=9153/6998b1dcd2ef9af8",
		"PaRan1/slow-set(fair)/p=1":    "w=7 m=0 σ=24 steps=7 msgs=0 first=6c7b7d1611628999 hooks=8/1545df4c8885d061",
		"PaRan1/slow-set(fair)/p=5":    "w=38 m=20 σ=12 steps=38 msgs=20 first=47bc06867b17514e hooks=64/f07e1c81ee6a5ee1",
		"PaRan1/slow-set(fair)/p=64":   "w=800 m=6300 σ=19 steps=832 msgs=6300 first=7689f4f0e3ecd3f8 hooks=6918/94421d707f472a4c",
		"PaRan1/stage-online/p=1":      "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan1/stage-online/p=5":      "w=51 m=32 σ=12 steps=51 msgs=32 first=d17910dd66f856a8 hooks=92/fd4eeff8f395f099",
		"PaRan1/stage-online/p=64":     "w=1088 m=8694 σ=18 steps=1088 msgs=8694 first=e6860d5ec23ede3c hooks=9921/65f99bbc42f75cdc",
		"PaRan1/stage-det/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan1/stage-det/p=5":         "w=50 m=28 σ=9 steps=53 msgs=40 first=de81494ba5add8c7 hooks=84/b9c69770e48832c1",
		"PaRan1/stage-det/p=64":        "w=832 m=8064 σ=12 steps=832 msgs=8064 first=8c48fa941dd0e060 hooks=9025/ccea936b14481192",
		"PaRan2/fair/p=1":              "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan2/fair/p=5":              "w=40 m=24 σ=7 steps=50 msgs=32 first=f807cd31cbd5a681 hooks=81/10281b9f4b692576",
		"PaRan2/fair/p=64":             "w=960 m=8190 σ=14 steps=1129 msgs=9261 first=576ef310d46b5649 hooks=9431/fbd85236e0335684",
		"PaRan2/random/p=1":            "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan2/random/p=5":            "w=33 m=20 σ=8 steps=42 msgs=20 first=64630f09d11fcbce hooks=68/57c03e663cab2397",
		"PaRan2/random/p=64":           "w=727 m=4662 σ=14 steps=813 msgs=4725 first=182bd12c5ef9e22f hooks=5561/155fa926c834852e",
		"PaRan2/crashing/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan2/crashing/p=5":          "w=39 m=28 σ=9 steps=41 msgs=32 first=3f670eba36f32107 hooks=65/3d2306c72b8dcea0",
		"PaRan2/crashing/p=64":         "w=930 m=7812 σ=14 steps=930 msgs=7812 first=9b1abc7a1edf92e4 hooks=8520/9c5ddd8bbd381848",
		"PaRan2/restarting/p=1":        "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan2/restarting/p=5":        "w=39 m=28 σ=9 steps=41 msgs=32 first=3f670eba36f32107 hooks=65/3d2306c72b8dcea0",
		"PaRan2/restarting/p=64":       "w=930 m=7812 σ=14 steps=930 msgs=7812 first=9b1abc7a1edf92e4 hooks=8520/9c5ddd8bbd381848",
		"PaRan2/omitting(fair)/p=1":    "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan2/omitting(fair)/p=5":    "w=40 m=24 σ=7 steps=52 msgs=40 first=f807cd31cbd5a681 hooks=91/4b506fed00b7b2b3",
		"PaRan2/omitting(fair)/p=64":   "w=960 m=8064 σ=14 steps=960 msgs=8064 first=8db03499e4f35b80 hooks=9153/74207c220a74d5c6",
		"PaRan2/slow-set(fair)/p=1":    "w=7 m=0 σ=24 steps=7 msgs=0 first=6c7b7d1611628999 hooks=8/1545df4c8885d061",
		"PaRan2/slow-set(fair)/p=5":    "w=44 m=24 σ=15 steps=51 msgs=28 first=e4382bd9619544a4 hooks=84/a979b22bed36ec47",
		"PaRan2/slow-set(fair)/p=64":   "w=800 m=6300 σ=19 steps=832 msgs=6300 first=62224921ce83dd28 hooks=6729/19a1c650d4c9442a",
		"PaRan2/stage-online/p=1":      "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan2/stage-online/p=5":      "w=51 m=36 σ=10 steps=58 msgs=40 first=add5367454b47b0e hooks=107/20cac983286a3ed7",
		"PaRan2/stage-online/p=64":     "w=1052 m=8316 σ=18 steps=1052 msgs=8316 first=af147bf8dce7c680 hooks=9501/18d2fc7cd909150a",
		"PaRan2/stage-det/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaRan2/stage-det/p=5":         "w=40 m=24 σ=7 steps=48 msgs=24 first=f807cd31cbd5a681 hooks=79/8e992defd9357df7",
		"PaRan2/stage-det/p=64":        "w=960 m=8190 σ=14 steps=1022 msgs=8190 first=642bb7458438ce24 hooks=9341/06574edc2e28d950",
		"PaDet/fair/p=1":               "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaDet/fair/p=5":               "w=40 m=20 σ=7 steps=40 msgs=20 first=f92a9dec9d626686 hooks=66/495b6bd26c09647b",
		"PaDet/fair/p=64":              "w=960 m=8064 σ=14 steps=960 msgs=8064 first=8749a0defe0f29cd hooks=9153/977cca8d7f454716",
		"PaDet/random/p=1":             "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaDet/random/p=5":             "w=34 m=20 σ=8 steps=42 msgs=24 first=1a4107b3fcc5852c hooks=71/ad41fd906df9ab2a",
		"PaDet/random/p=64":            "w=769 m=4977 σ=15 steps=838 msgs=5040 first=520c27e3998b59e5 hooks=5829/83eb58655262a17a",
		"PaDet/crashing/p=1":           "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaDet/crashing/p=5":           "w=33 m=20 σ=7 steps=38 msgs=24 first=3e581da69b4dcb60 hooks=58/0f0a48bcc95cc80c",
		"PaDet/crashing/p=64":          "w=930 m=7812 σ=14 steps=930 msgs=7812 first=44945c625117f5a9 hooks=8524/76ae9e1f7de25115",
		"PaDet/restarting/p=1":         "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaDet/restarting/p=5":         "w=33 m=20 σ=7 steps=38 msgs=24 first=3e581da69b4dcb60 hooks=58/0f0a48bcc95cc80c",
		"PaDet/restarting/p=64":        "w=930 m=7812 σ=14 steps=930 msgs=7812 first=44945c625117f5a9 hooks=8524/76ae9e1f7de25115",
		"PaDet/omitting(fair)/p=1":     "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaDet/omitting(fair)/p=5":     "w=40 m=24 σ=7 steps=48 msgs=28 first=f92a9dec9d626686 hooks=78/b4b44a96732a8393",
		"PaDet/omitting(fair)/p=64":    "w=960 m=8064 σ=14 steps=960 msgs=8064 first=8749a0defe0f29cd hooks=9153/a9289ec66972a6fe",
		"PaDet/slow-set(fair)/p=1":     "w=7 m=0 σ=24 steps=7 msgs=0 first=6c7b7d1611628999 hooks=8/1545df4c8885d061",
		"PaDet/slow-set(fair)/p=5":     "w=55 m=32 σ=19 steps=58 msgs=32 first=e222d5e261b1da9e hooks=99/7d1372eeb870129c",
		"PaDet/slow-set(fair)/p=64":    "w=800 m=6426 σ=19 steps=926 msgs=6426 first=3524fbb4e435a0bd hooks=7451/bdc933f68fde9841",
		"PaDet/stage-online/p=1":       "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaDet/stage-online/p=5":       "w=44 m=32 σ=9 steps=44 msgs=32 first=c3b5a309f8328fe4 hooks=85/007a0c80b7c952e1",
		"PaDet/stage-online/p=64":      "w=998 m=8757 σ=18 steps=1153 msgs=9450 first=05bc5778f1bac6c3 hooks=10514/60b99787e58194c7",
		"PaDet/stage-det/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/93734936d9596984",
		"PaDet/stage-det/p=5":          "w=35 m=20 σ=6 steps=35 msgs=20 first=f92a9dec9d626686 hooks=61/5a36cc7dbc52f9f6",
		"PaDet/stage-det/p=64":         "w=832 m=8064 σ=12 steps=832 msgs=8064 first=ebee4eaad0f59c60 hooks=9025/ea5de99b26bba48b",
		"AllToAll/fair/p=1":            "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/cabfb35811b75554",
		"AllToAll/fair/p=5":            "w=115 m=0 σ=22 steps=115 msgs=0 first=f92a9dec9d626686 hooks=116/29edd13250f981c0",
		"AllToAll/fair/p=64":           "w=16576 m=0 σ=258 steps=16576 msgs=0 first=f2c3314a5f14e101 hooks=16577/4a91c53e08f7a387",
		"AllToAll/random/p=1":          "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/cabfb35811b75554",
		"AllToAll/random/p=5":          "w=97 m=0 σ=25 steps=115 msgs=0 first=cc8eac09cd1d2fa0 hooks=116/0436daaba6f590bf",
		"AllToAll/random/p=64":         "w=15582 m=0 σ=323 steps=16576 msgs=0 first=ccfc909f6d8804ea hooks=16577/0d0fa415a52f7dfb",
		"AllToAll/crashing/p=1":        "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/cabfb35811b75554",
		"AllToAll/crashing/p=5":        "w=78 m=0 σ=22 steps=78 msgs=0 first=7cd133cb89db71a0 hooks=81/3efc6eb652cd0e12",
		"AllToAll/crashing/p=64":       "w=10035 m=0 σ=258 steps=10035 msgs=0 first=f2c3314a5f14e101 hooks=10067/96f765bf58070a77",
		"AllToAll/restarting/p=1":      "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/cabfb35811b75554",
		"AllToAll/restarting/p=5":      "w=91 m=0 σ=22 steps=124 msgs=0 first=7cd133cb89db71a0 hooks=129/26cdccd4ebf41928",
		"AllToAll/restarting/p=64":     "w=16204 m=0 σ=258 steps=18064 msgs=0 first=f2c3314a5f14e101 hooks=18127/0510a4fcff288d76",
		"AllToAll/omitting(fair)/p=1":  "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/cabfb35811b75554",
		"AllToAll/omitting(fair)/p=5":  "w=115 m=0 σ=22 steps=115 msgs=0 first=f92a9dec9d626686 hooks=116/29edd13250f981c0",
		"AllToAll/omitting(fair)/p=64": "w=16576 m=0 σ=258 steps=16576 msgs=0 first=f2c3314a5f14e101 hooks=16577/4a91c53e08f7a387",
		"AllToAll/slow-set(fair)/p=1":  "w=7 m=0 σ=24 steps=7 msgs=0 first=6c7b7d1611628999 hooks=8/132dd72a9d436091",
		"AllToAll/slow-set(fair)/p=5":  "w=64 m=0 σ=22 steps=115 msgs=0 first=5fd0e8a75ce46d05 hooks=116/83362dd7bcaec20b",
		"AllToAll/slow-set(fair)/p=64": "w=10368 m=0 σ=258 steps=16576 msgs=0 first=27ef1d00c561c359 hooks=16577/ee99961174b1dd4f",
		"AllToAll/stage-online/p=1":    "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/cabfb35811b75554",
		"AllToAll/stage-online/p=5":    "w=109 m=0 σ=22 steps=115 msgs=0 first=c3b5a309f8328fe4 hooks=116/ac43146a325b9e06",
		"AllToAll/stage-online/p=64":   "w=16511 m=0 σ=258 steps=16576 msgs=0 first=e5199df1f42b670e hooks=16577/fe4052271cb4635f",
		"AllToAll/stage-det/p=1":       "w=7 m=0 σ=6 steps=7 msgs=0 first=8e0ce641141d6c82 hooks=8/cabfb35811b75554",
		"AllToAll/stage-det/p=5":       "w=115 m=0 σ=22 steps=115 msgs=0 first=f92a9dec9d626686 hooks=116/29edd13250f981c0",
		"AllToAll/stage-det/p=64":      "w=16558 m=0 σ=258 steps=16576 msgs=0 first=fdef5ed00392ad05 hooks=16577/54a4adfe5e35fdd3",
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
		"DA/p=16":      "w=1104 m=240 σ=68 steps=1104 msgs=240 first=027b127908890325",
		"DA/p=64":      "w=1600 m=4032 σ=24 steps=1600 msgs=4032 first=35c4c9512052a325",
		"DA/p=256":     "w=4264 m=65280 σ=16 steps=4264 msgs=65280 first=e1725e6ba59cad25",
		"PaRan1/p=16":  "w=2064 m=480 σ=128 steps=2064 msgs=480 first=fbc5c204d47f0325",
		"PaRan1/p=64":  "w=2112 m=8064 σ=32 steps=2112 msgs=8064 first=0496d170ebfd9325",
		"PaRan1/p=256": "w=4024 m=256530 σ=15 steps=4024 msgs=256530 first=3555859840233025",
		"PaDet/p=16":   "w=3072 m=720 σ=191 steps=3072 msgs=720 first=8d6a9a49e24b8b25",
		"PaDet/p=64":   "w=3072 m=12096 σ=47 steps=3072 msgs=12096 first=2f8a83861efa5225",
		"PaDet/p=256":  "w=3988 m=254235 σ=15 steps=3988 msgs=254235 first=d4dbe1c4ce31ca25",
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
		"DA/stage-online/p=256":      "w=77149 m=65280 σ=304 steps=77149 msgs=65280 first=38af5d4dfe2c10e6",
		"DA/stage-online/p=1024":     "w=112581 m=1047552 σ=112 steps=112581 msgs=1047552 first=4d2d4b32e7124569",
		"PaRan2/stage-online/p=256":  "w=195366 m=159375 σ=768 steps=195366 msgs=159375 first=38ab1f4c12a32775",
		"PaRan2/stage-online/p=1024": "w=193589 m=2440878 σ=192 steps=193589 msgs=2440878 first=6b3982062ad5c666",
		"DA/stage-det/p=256":         "w=67840 m=65280 σ=264 steps=67840 msgs=65280 first=8555f151b4be2b25",
		"DA/stage-det/p=1024":        "w=82944 m=1047552 σ=80 steps=82944 msgs=1047552 first=9e8d6d56a3fa2325",
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
