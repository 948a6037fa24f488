package pim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// fig7Stack builds the paper's Fig. 7 GEMV example: a (1x48)*(48x32) GEMV
// needing 3 WR-INP, 6 MAC and 2 RD-OUT commands (two output groups of 16,
// each accumulating 3 input tiles).
func fig7Stack() *Stack {
	s := NewStack(64, 32)
	s.WrInp(0) // W0
	s.WrInp(1) // W1
	s.WrInp(2) // W2
	s.Mac(0, 0, 0, 0)
	s.Mac(1, 0, 0, 1)
	s.Mac(2, 0, 0, 2)
	s.RdOut(0)
	s.Mac(0, 1, 0, 3)
	s.Mac(1, 1, 0, 4)
	s.Mac(2, 1, 0, 5)
	s.RdOut(1)
	return s
}

func TestFig7StackShape(t *testing.T) {
	s := fig7Stack()
	if err := s.Validate(); err != nil {
		t.Fatalf("fig7 stack should validate: %v", err)
	}
	c := s.Counts()
	if c[WRINP] != 3 || c[MAC] != 6 || c[RDOUT] != 2 {
		t.Fatalf("fig7 counts = %v, want 3 WR-INP / 6 MAC / 2 RD-OUT", c)
	}
	if s.Len() != 11 {
		t.Fatalf("fig7 stack length = %d, want 11", s.Len())
	}
}

func TestIDsAreDense(t *testing.T) {
	s := fig7Stack()
	for i, c := range s.Cmds {
		if c.ID != i {
			t.Fatalf("command %d has ID %d", i, c.ID)
		}
	}
}

func TestValidateCatchesMACBeforeWrite(t *testing.T) {
	s := NewStack(4, 4)
	s.Mac(0, 0, 0, 0)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for MAC before WR-INP")
	}
}

func TestValidateCatchesEmptyDrain(t *testing.T) {
	s := NewStack(4, 4)
	s.WrInp(0)
	s.RdOut(0)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for RD-OUT with no accumulation")
	}
}

func TestValidateCatchesDoubleDrain(t *testing.T) {
	s := NewStack(4, 4)
	s.WrInp(0)
	s.Mac(0, 0, 0, 0)
	s.RdOut(0)
	s.RdOut(0)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for double RD-OUT")
	}
}

func TestValidateCatchesOutOfRangeIndices(t *testing.T) {
	s := NewStack(2, 2)
	s.WrInp(5)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for GBuf index out of range")
	}
	s2 := NewStack(2, 2)
	s2.WrInp(0)
	s2.Mac(0, 9, 0, 0)
	if err := s2.Validate(); err == nil {
		t.Fatal("expected error for Out index out of range")
	}
}

func TestRowProtocol(t *testing.T) {
	s := NewStack(4, 4)
	s.WrInp(0)
	s.Act(3)
	s.Mac(0, 0, 3, 0)
	s.Pre(3)
	s.Act(4)
	s.Mac(0, 0, 4, 0)
	s.Pre(4)
	s.RdOut(0)
	if err := s.Validate(); err != nil {
		t.Fatalf("row protocol stack should validate: %v", err)
	}

	bad := NewStack(4, 4)
	bad.WrInp(0)
	bad.Act(3)
	bad.Mac(0, 0, 7, 0) // wrong row
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for MAC on unopened row")
	}

	bad2 := NewStack(4, 4)
	bad2.Act(1)
	bad2.Act(2) // double open
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected error for nested ACT")
	}

	bad3 := NewStack(4, 4)
	bad3.Pre(1) // close without open
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected error for PRE without ACT")
	}
}

func TestByteAccounting(t *testing.T) {
	s := fig7Stack()
	if got := s.Program().IOBytes(32); got != int64(5*32) {
		t.Fatalf("IOBytes = %d, want %d", got, 5*32)
	}
	if got := s.Program().DRAMBytes(32, 16); got != int64(6*32*16) {
		t.Fatalf("DRAMBytes = %d, want %d", got, 6*32*16)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{WRINP: "WR-INP", MAC: "MAC", RDOUT: "RD-OUT", ACT: "ACT", PRE: "PRE"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: any stack generated by the well-formed random generator
// validates, and counts are conserved.
func TestRandomWellFormedStacksValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStack(8, 8)
		written := []int{}
		pending := map[int]bool{}
		for i := 0; i < 50; i++ {
			switch rng.Intn(3) {
			case 0:
				g := rng.Intn(8)
				s.WrInp(g)
				written = append(written, g)
			case 1:
				if len(written) == 0 {
					continue
				}
				g := written[rng.Intn(len(written))]
				o := rng.Intn(8)
				s.Mac(g, o, 0, i)
				pending[o] = true
			case 2:
				for o := range pending {
					s.RdOut(o)
					delete(pending, o)
					break
				}
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestProgramValidateNamedErrors: a malformed program is an error that
// names the offending segment, never a panic.
func TestProgramValidateNamedErrors(t *testing.T) {
	body := func(cmds ...Command) []Command {
		for i := range cmds {
			cmds[i].ID = i
		}
		return cmds
	}
	cases := []struct {
		name string
		segs []Segment
		want string
	}{
		{"negative repeat", []Segment{
			{Cmds: body(wrInp(0)), Repeat: 1},
			{Cmds: body(mac(0, 0, 0, 0)), Repeat: -2},
		}, "segment 1 has negative repeat -2"},
		{"empty repeated body", []Segment{
			{Cmds: body(wrInp(0)), Repeat: 1},
			{Repeat: 3},
		}, "segment 1 repeats an empty body"},
		{"no fixed point", []Segment{
			{Cmds: body(act(5), wrInp(0)), Repeat: 1},
			{Cmds: body(wrInp(1)), Repeat: 4, RowShift: 1},
			{Cmds: body(mac(0, 0, 5, 0), rdOut(0), pre(5)), Repeat: 1},
		}, "segment 1: repeated body does not reach a fixed point"},
	}
	for _, c := range cases {
		p := &Program{Segs: c.segs, GBufEntries: 4, OutEntries: 4}
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestProgramExpandAndFold: folding emitted commands into a repeated body
// expands back to the commands it stands for, rows shifted per repeat,
// and the fixed-point check accepts the body.
func TestProgramExpandAndFold(t *testing.T) {
	p := new(Program)
	p.Reset(4, 4)
	p.WrInp(0)
	mark := p.Tail()
	p.Act(0)
	p.Mac(0, 0, 0, 0)
	p.RdOut(0)
	p.Pre(0)
	p.Fold(mark, 3, 1)
	p.WrInp(1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := NewStack(4, 4)
	want.WrInp(0)
	for r := 0; r < 3; r++ {
		want.Act(r)
		want.Mac(0, 0, r, 0)
		want.RdOut(0)
		want.Pre(r)
	}
	want.WrInp(1)
	got := p.Expand()
	if len(got.Cmds) != len(want.Cmds) || p.Len() != len(want.Cmds) {
		t.Fatalf("expanded %d (Len %d) commands, want %d", len(got.Cmds), p.Len(), len(want.Cmds))
	}
	for i := range want.Cmds {
		if got.Cmds[i] != want.Cmds[i] {
			t.Fatalf("command %d = %+v, want %+v", i, got.Cmds[i], want.Cmds[i])
		}
	}
	if p.Counts() != want.Counts() || p.Flat() {
		t.Fatalf("counts %v flat %v, want %v and not flat", p.Counts(), p.Flat(), want.Counts())
	}
}
