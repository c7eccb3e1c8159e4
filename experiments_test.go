package doall_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"doall"
)

// TestExperimentTablePins pins the exact quick-scale output of every
// E1–E10 table: the sha256 of its plain-text and Markdown renderings.
// Quick-scale runs are seeded and deterministic, so any change to how the
// experiments build machines, adversaries or seeds — or to the table
// formatting — shows up here as a digest mismatch.
func TestExperimentTablePins(t *testing.T) {
	pins := []struct{ id, text, markdown string }{
		{"E1", "dc3ec161937e886d02c6227a876e515f2725bf5e5def3586e3e20de31771afe6", "293f8d3ea45eb6eb87a201a0b66a6dccb4dde63fe32f4bf1069a6ccebbbe03ea"},
		{"E2", "c53596f252ca5b9009b29b1485db47cd25c2e785178b92981f0dfa3fe7ce3ee3", "1ccea66274003dc9d9c670dc608d37aafcc226272b090dd0cc13f8f42bf98239"},
		{"E3", "09bdf877ca149d7b459f6d2029ad1789f6bb67269649ac35426e0edbaa16455a", "9182a22cb04831aeeb330d844d0e98bb875acd47c64fa88ed3ac5358c7f72f3f"},
		{"E4", "8a407934382bb6c1622f482e68a78529d93f31d518d4c97031198234e72114ca", "c131aec7336a6eec6be1c99a9d6ee2327e5ed843df7b67ee82f9a6afd11d2a4f"},
		{"E5", "43d32d0da8d21ba7052d2a1a63288efb0b3f0719e8a36cf1b12ad4cc1be1dcc3", "894ac5beb1a76a4ef8e37f6cdd17a6d7fe326ec1c02fe1be43c1d44ead2e8a39"},
		{"E6", "eca6d80f279eca8ad328384adb4379879bba8fa272aa4f26b3b475d3eaf2fa29", "7eac91296a6b8a9f5ca4a9ed6e75ddce7e81a97323b744ecff14c1f8345c0d93"},
		{"E7", "1b61a3e3580ea1d59245620a4a8527da86234a78e071cda6e634858f409db777", "9e2c1b0d75b326e37a09191e35cccd1f0a05e8dc5b20eb43421da0a99427c8dd"},
		{"E8", "5f7ebe5b6b33c015c6b6b5d9ed8195730308329b2867b85e750d9b0adf88384a", "c4d47aff5822c9a1f508acf3837899b2528147e28389e42f9976dbf84e410e38"},
		{"E9", "ab9ddb7687a9012a018a4d8360f80eb3f0a6c7a1d5446d233cc96b66faffc2c7", "3c797b320692aaefa8b8505a80f700ed6057a7f79043325d30d57506db5ac0a4"},
		{"E10", "52f1c73bea71750940a48e63eb767f6f814fd9ca1d4d603b3b58788f4dad2f03", "12d131f17399ea55a3e876a0aa0d57f7a1325c73d02e0a5092fcfac588cab302"},
	}
	tables, err := doall.AllExperiments(doall.QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(pins) {
		t.Fatalf("got %d tables, want %d", len(tables), len(pins))
	}
	for i, tb := range tables {
		pin := pins[i]
		if tb.ID != pin.id {
			t.Fatalf("table %d is %s, want %s", i, tb.ID, pin.id)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tb.String()))); got != pin.text {
			t.Errorf("%s: String() digest %s, want %s:\n%s", tb.ID, got, pin.text, tb.String())
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(tb.Markdown()))); got != pin.markdown {
			t.Errorf("%s: Markdown() digest %s, want %s:\n%s", tb.ID, got, pin.markdown, tb.Markdown())
		}
	}
}
