package sim

import "testing"

func TestPullTracker(t *testing.T) {
	tr := NewPullTracker()
	st := tr.Get("a", "b")
	if st.Seen || st.Version != 0 {
		t.Fatal("fresh state")
	}
	st.Version, st.Seen = 5, true
	if got := tr.Get("a", "b"); got.Version != 5 || !got.Seen {
		t.Fatal("state must persist per pair")
	}
	if got := tr.Get("b", "a"); got.Seen {
		t.Fatal("pairs are directional")
	}
	tr.Reset()
	if got := tr.Get("a", "b"); got.Seen {
		t.Fatal("Reset must clear history")
	}
}
