package memory

import "testing"

// errString renders an error for comparison; nil is the empty string.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzDPA runs random Admit/Grow/GrowBudget/Release/CanAdmit sequences
// on DPA and on the materialized free-list reference (refDPA) and
// asserts, after every operation, identical results and errors,
// identical free counts and host messages, identical chunk lists and
// VA2PA translations for every request, and a GrowBudget equal to the
// number of lockstep Grow rounds that succeed.
//
// shape picks the pool (4..35 chunks of 1 KiB plus a partial chunk)
// and the token size (1..8 x 64 B, so chunk boundaries fall both on and
// between tokens); each op is three bytes: opcode, request ID (0..7)
// and an argument.
func FuzzDPA(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 40, 0, 2, 9, 1, 1, 30, 3, 1, 0, 0, 3, 7, 2, 0, 0xff})
	f.Add(uint8(37), []byte{0, 0, 200, 0, 1, 200, 1, 0, 255, 2, 0, 3, 3, 0, 0, 0, 2, 90, 1, 2, 250})
	f.Add(uint8(250), []byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 2, 0, 7, 3, 1, 0, 1, 0, 100, 2, 0, 0x05, 4, 0, 255})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		const chunk = 1 << 10
		bpt := int64(64 * (1 + int(shape)%8))
		capacity := int64(4+int(shape>>3))*chunk + 300
		d, err := NewDPA(capacity, bpt, chunk)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDPA(capacity, bpt, chunk)
		for i := 0; i+2 < len(ops); i += 3 {
			op, id, arg := ops[i]%5, int(ops[i+1])%8, int(ops[i+2])
			var got, want error
			switch op {
			case 0:
				got, want = d.Admit(id, arg), ref.Admit(id, arg)
			case 1:
				// Mostly grow; arg < 32 asks for a shrink, which must fail.
				n := ref.liveTokens[id] + arg - 32
				got, want = d.Grow(id, n), ref.Grow(id, n)
			case 2:
				var ids []int
				for b := 0; b < 8; b++ {
					if arg&(1<<b) != 0 {
						ids = append(ids, b)
					}
				}
				if g, w := d.GrowBudget(ids), ref.GrowBudget(ids); g != w {
					t.Fatalf("op %d: GrowBudget(%v) = %d, lockstep rounds %d", i/3, ids, g, w)
				}
			case 3:
				got, want = d.Release(id), ref.Release(id)
			case 4:
				if g, w := d.CanAdmit(arg), ref.CanAdmit(arg); g != w {
					t.Fatalf("op %d: CanAdmit(%d) = %v, reference %v", i/3, arg, g, w)
				}
			}
			if errString(got) != errString(want) {
				t.Fatalf("op %d (%d, id %d, arg %d): error %q, reference %q", i/3, op, id, arg, errString(got), errString(want))
			}
			if g, w := d.free(), len(ref.freeList); g != w {
				t.Fatalf("op %d: %d free chunks, reference %d", i/3, g, w)
			}
			if g, w := d.HostMessages(), ref.hostMessages; g != w {
				t.Fatalf("op %d: %d host messages, reference %d", i/3, g, w)
			}
			for r := 0; r < 8; r++ {
				g, w := d.Chunks(r), ref.va2pa[r]
				if len(g) != len(w) {
					t.Fatalf("op %d: request %d maps %v, reference %v", i/3, r, g, w)
				}
				for j := range g {
					if g[j] != w[j] {
						t.Fatalf("op %d: request %d maps %v, reference %v", i/3, r, g, w)
					}
				}
				for _, va := range []int64{0, chunk - 1, int64(len(w))*chunk - 1, int64(len(w)) * chunk, -1} {
					gp, gerr := d.Translate(r, va)
					wp, werr := ref.Translate(r, va)
					if gp != wp || errString(gerr) != errString(werr) {
						t.Fatalf("op %d: Translate(%d, %d) = %d, %q; reference %d, %q", i/3, r, va, gp, errString(gerr), wp, errString(werr))
					}
				}
			}
		}
	})
}
