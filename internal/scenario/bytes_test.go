package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"doall/internal/core"
	"doall/internal/sim"
)

// payloadLen is an observer recording the bit lengths of the knowledge
// payloads multicast during a run.
type payloadLen struct {
	sim.NopObserver
	lens map[int]bool
}

func (o *payloadLen) OnMulticast(from int, now int64, payload any, recipients int) {
	switch p := payload.(type) {
	case core.DoneSet:
		o.lens[p.S.Len()] = true
	case core.TreeSnapshot:
		o.lens[p.S.Len()] = true
	}
}

// TestByteCountIsWholeKnowledgeSet pins the meaning of Result.Bytes: every
// counted copy of a PA or DA payload is the sender's whole n-bit set,
// 8·⌈n/64⌉ bytes, whatever the adversary drops, delays or restarts, so
// Bytes = Messages·8⌈n/64⌉ with n read off the run's own payloads. The
// payload-free algorithms count no bytes. Every run must also equal the
// per-message reference engine's Result, at shards 1 and 2.
func TestByteCountIsWholeKnowledgeSet(t *testing.T) {
	lens := map[int]bool{} // payload lengths seen across all runs
	for _, algo := range Algorithms() {
		for _, adv := range []string{"fair", "random", "crashing", "restarting", "omitting(fair)"} {
			// PA's n is its job count: 50 at p=60, t=150 and a whole word
			// at p=64, t=256. DA's tree straddles words at both.
			for _, shape := range []struct{ p, t int }{{60, 150}, {64, 256}} {
				sc := Scenario{Algorithm: algo, Adversary: adv, P: shape.p, T: shape.t, D: 3, Seed: 5}
				t.Run(fmt.Sprintf("%s/%s/p=%d", algo, adv, shape.p), func(t *testing.T) {
					checkByteCount(t, sc, lens)
				})
			}
		}
	}
	straddled, whole := false, false
	for n := range lens {
		straddled = straddled || n > 64 && n%64 != 0
		whole = whole || n%64 == 0
	}
	if !straddled || !whole {
		t.Errorf("payload lengths %v: want one that straddles words and one of whole words", lens)
	}
}

// checkByteCount runs sc observed at shards 1 and 2 and checks its Result
// against RunLegacy and its byte count against its payloads' lengths,
// which it adds to lens.
func checkByteCount(t *testing.T, sc Scenario, lens map[int]bool) {
	t.Helper()
	legacy := runLegacy(t, sc)
	for _, shards := range []int{1, 2} {
		sc.Shards = shards
		obs := &payloadLen{lens: map[int]bool{}}
		res, err := RunWith(sc, Options{Observer: obs})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		r := res.Sim
		if !reflect.DeepEqual(r, legacy) {
			t.Fatalf("shards=%d: Result differs from RunLegacy:\nsim:    %+v\nlegacy: %+v", shards, r, legacy)
		}
		label := fmt.Sprintf("shards=%d: Messages=%d Bytes=%d", shards, r.Messages, r.Bytes)
		switch sc.Algorithm {
		case AlgoAllToAll, AlgoObliDo:
			if r.Bytes != 0 {
				t.Fatalf("%s, want 0 bytes", label)
			}
			continue
		case AlgoDA, AlgoPaRan1, AlgoPaRan2, AlgoPaDet:
			if len(obs.lens) != 1 || r.Messages == 0 {
				t.Fatalf("%s: payload lengths %v, want one length and some messages", label, obs.lens)
			}
		}
		for n := range obs.lens {
			if want := r.Messages * int64(8*((n+63)/64)); r.Bytes != want {
				t.Fatalf("%s, n=%d: want %d bytes", label, n, want)
			}
			lens[n] = true
		}
	}
}
