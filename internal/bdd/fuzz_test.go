package bdd

import (
	"bytes"
	"testing"
)

// fuzzBuild interprets ops as a tiny stack program over an 8-variable
// engine, yielding a deterministic set of refs for round-trip fuzzing.
func fuzzBuild(t interface{ Skip(...any) }, e *Engine, ops []byte) []Ref {
	stack := []Ref{True}
	push := func(r Ref) {
		stack = append(stack, r)
		if len(stack) > 16 {
			stack = stack[1:]
		}
	}
	top := func() Ref { return stack[len(stack)-1] }
	for _, op := range ops {
		var err error
		var r Ref
		switch op % 4 {
		case 0:
			r, err = e.Var(int(op/4) % 8)
		case 1:
			r, err = e.Not(top())
		case 2:
			if len(stack) < 2 {
				continue
			}
			r, err = e.And(stack[len(stack)-1], stack[len(stack)-2])
		case 3:
			if len(stack) < 2 {
				continue
			}
			r, err = e.Or(stack[len(stack)-1], stack[len(stack)-2])
		}
		if err != nil {
			t.Skip("engine limit reached")
		}
		push(r)
	}
	return stack
}

// FuzzSerializeRoundTrip builds arbitrary functions, round-trips them
// through the set codec into a second engine, and checks every decoded
// function re-encodes to its original's bytes.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 1, 3})
	f.Add([]byte{1, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{0, 2}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		a := New(8, 1<<16)
		refs := fuzzBuild(t, a, ops)

		b := New(8, 1<<16)
		roots, err := b.DeserializeSet(a.SerializeSet(refs))
		if err != nil {
			t.Fatalf("set round trip failed: %v", err)
		}
		if len(roots) != len(refs) {
			t.Fatalf("got %d roots for %d refs", len(roots), len(refs))
		}
		// Canonicity: the decoded functions re-encode to the same bytes.
		for i, r := range refs {
			if !bytes.Equal(fingerprint(b, roots[i]), fingerprint(a, r)) {
				t.Fatalf("ref %d changed across the round trip", i)
			}
		}
	})
}

// FuzzGCCacheRelocation is the relocation safety property: after a GC keeps
// an arbitrary subset of a fuzz-built ref set live, replaying the same
// program on the collected engine — where ops may be answered from
// relocated cache entries — must produce functions identical to a fresh
// engine that never collected. A wrong relocated hit would surface as a
// serialization mismatch.
func FuzzGCCacheRelocation(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 1, 3}, uint8(1))
	f.Add(bytes.Repeat([]byte{0, 2, 3, 1}, 30), uint8(0b10101))
	f.Add([]byte{12, 1, 2, 16, 3, 1, 1, 2}, uint8(0xff))
	f.Fuzz(func(t *testing.T, ops []byte, keepMask uint8) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		e := New(8, 1<<16)
		refs := fuzzBuild(t, e, ops)
		var roots []Ref
		for i, r := range refs {
			if keepMask&(1<<(i%8)) != 0 {
				roots = append(roots, r)
			}
		}
		remap := e.GC(roots)
		for _, r := range roots {
			if remap(r) == False && r != False {
				// Only legal if the function itself is False.
				if e.SatCount(remap(r)) != 0 {
					t.Fatal("live root lost by GC")
				}
			}
		}
		// Replay on the collected engine (relocated cache in play) and on a
		// cold one; canonical serializations must agree ref-by-ref.
		got := fuzzBuild(t, e, ops)
		fresh := New(8, 1<<16)
		want := fuzzBuild(t, fresh, ops)
		if len(got) != len(want) {
			t.Fatalf("replay produced %d refs, fresh %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(fingerprint(e, got[i]), fingerprint(fresh, want[i])) {
				t.Fatalf("ref %d differs after relocated-cache replay", i)
			}
		}
	})
}

// FuzzDeserializeSet throws arbitrary bytes at the wire decoder: it must
// reject corruption with an error, never panic or corrupt the engine.
func FuzzDeserializeSet(f *testing.F) {
	seed := New(8, 0)
	x, _ := seed.Var(1)
	y, _ := seed.Var(6)
	g, _ := seed.And(x, y)
	f.Add(seed.SerializeSet([]Ref{g, x}))
	whole := seed.SerializeSet([]Ref{g})
	f.Add(whole[:len(whole)-2])
	f.Add([]byte{})
	f.Add([]byte{0xd3, 0xea, 0xc9, 0x9a, 0x05})
	f.Add(hugeSetNodeCount())
	f.Add(hugeSetRootCount())
	f.Fuzz(func(t *testing.T, data []byte) {
		e := New(8, 1<<16)
		v, err := e.Var(3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.DeserializeSet(data); err != nil {
			_ = err // corruption detected: fine
		}
		// Whatever the decoder did, the engine must still be sane.
		nv, err := e.Not(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := e.Not(nv)
		if err != nil {
			t.Fatal(err)
		}
		if back != v {
			t.Fatalf("engine corrupted after decode: !!v = %d, v = %d", back, v)
		}

		// The session path shares the decoder; Accept/Materialize must be
		// equally panic-free on garbage.
		table := NewWireTable()
		if ok, err := table.Accept(data, 8); err == nil && ok {
			_ = table.Materialize(e, data)
		}
	})
}
