// Package pim models a single PIM channel at command granularity.
//
// A channel executes a linear stream of PIM commands. A Stack holds the
// stream command by command; a Program holds it as segments, each a body
// of commands emitted a repeat count of times with its DRAM rows advanced
// by a fixed shift per repeat, so a long periodic kernel is described in
// space proportional to its period. A Stack is the one-segment case. Three primitive kinds
// follow the paper's Table III: WR-INP copies one 32 B tile from the HUB GPR
// into a Global Buffer (GBuf) entry; MAC reads one GBuf entry, multiplies it
// against one DRAM column tile in every bank in parallel and accumulates
// into a per-bank output entry; RD-OUT drains one output entry from all
// banks (2 B per bank, 32 B total) back to the GPR. ACT/PRE row commands are
// materialised by the kernel builders when a MAC touches a closed row.
package pim

import (
	"fmt"
	"slices"
)

// Kind enumerates PIM command kinds.
type Kind uint8

const (
	// WRINP writes one input tile into a GBuf entry.
	WRINP Kind = iota
	// MAC multiplies one GBuf entry against one DRAM column tile per bank
	// and accumulates into an output entry.
	MAC
	// RDOUT drains one output entry from all banks to the GPR.
	RDOUT
	// ACT activates (opens) a DRAM row in all banks of the channel.
	ACT
	// PRE precharges (closes) the open DRAM row.
	PRE

	// NumKinds is the number of command kinds; Counts is indexed by Kind.
	NumKinds = int(PRE) + 1
)

// String implements fmt.Stringer for command kinds.
func (k Kind) String() string {
	switch k {
	case WRINP:
		return "WR-INP"
	case MAC:
		return "MAC"
	case RDOUT:
		return "RD-OUT"
	case ACT:
		return "ACT"
	case PRE:
		return "PRE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Command is one channel-level PIM command. IDs are assigned densely by the
// Stack builder in program order, mirroring the paper's Fig. 7 example where
// each command carries a unique identifier used for dependency tracking.
type Command struct {
	ID   int
	Kind Kind
	// GBuf is the Global Buffer entry index accessed by WRINP (write) and
	// MAC (read). Unused (-1) for other kinds.
	GBuf int
	// Out is the output entry index accumulated by MAC and drained by
	// RDOUT. Unused (-1) for other kinds.
	Out int
	// Row and Col locate the DRAM tile read by MAC. Row is also set for
	// ACT/PRE. Unused (-1) otherwise.
	Row, Col int
}

// Stack is an ordered PIM command stream for one channel, as produced by the
// kernel builders and consumed by the schedulers.
type Stack struct {
	Cmds []Command
	// GBufEntries and OutEntries record the buffer geometry the stack was
	// built for; schedulers validate against their device config.
	GBufEntries int
	OutEntries  int
}

// NewStack returns an empty stack for the given buffer geometry.
func NewStack(gbufEntries, outEntries int) *Stack {
	return &Stack{GBufEntries: gbufEntries, OutEntries: outEntries}
}

// Reset empties the stack for a new buffer geometry, keeping the command
// slice's capacity so a reused stack stops allocating once it has held
// its largest program.
func (s *Stack) Reset(gbufEntries, outEntries int) {
	s.Cmds = s.Cmds[:0]
	s.GBufEntries, s.OutEntries = gbufEntries, outEntries
}

// push appends a command, assigning the next dense ID, and returns it.
func (s *Stack) push(c Command) Command {
	c.ID = len(s.Cmds)
	s.Cmds = append(s.Cmds, c)
	return c
}

// WrInp appends a WR-INP command targeting the given GBuf entry.
func (s *Stack) WrInp(gbuf int) Command { return s.push(wrInp(gbuf)) }

// Mac appends a MAC command reading gbuf and accumulating into out at the
// DRAM location (row, col).
func (s *Stack) Mac(gbuf, out, row, col int) Command { return s.push(mac(gbuf, out, row, col)) }

// RdOut appends an RD-OUT command draining the given output entry.
func (s *Stack) RdOut(out int) Command { return s.push(rdOut(out)) }

// Act appends a row-activate command for the given row.
func (s *Stack) Act(row int) Command { return s.push(act(row)) }

// Pre appends a precharge command closing the given row.
func (s *Stack) Pre(row int) Command { return s.push(pre(row)) }

func wrInp(gbuf int) Command { return Command{Kind: WRINP, GBuf: gbuf, Out: -1, Row: -1, Col: -1} }
func mac(gbuf, out, row, col int) Command {
	return Command{Kind: MAC, GBuf: gbuf, Out: out, Row: row, Col: col}
}
func rdOut(out int) Command { return Command{Kind: RDOUT, GBuf: -1, Out: out, Row: -1, Col: -1} }
func act(row int) Command   { return Command{Kind: ACT, GBuf: -1, Out: -1, Row: row, Col: -1} }
func pre(row int) Command   { return Command{Kind: PRE, GBuf: -1, Out: -1, Row: row, Col: -1} }

// Len is the number of commands in the stack.
func (s *Stack) Len() int { return len(s.Cmds) }

// Program returns the stack as a one-segment program sharing its
// commands.
func (s *Stack) Program() *Program {
	return &Program{Segs: []Segment{{Cmds: s.Cmds, Repeat: 1}}, GBufEntries: s.GBufEntries, OutEntries: s.OutEntries}
}

// Counts tallies commands by kind. Validate rejects unknown kinds; Counts
// must only be called on a stack that passed it.
func (s *Stack) Counts() [NumKinds]int { return s.Program().Counts() }

// Validate checks the stack's invariants (see Program.Validate).
func (s *Stack) Validate() error { return s.Program().Validate() }

// Segment is a body of commands emitted Repeat times in a row. Repeat r
// (counting from 0) emits the body with the Row of every row-bearing
// command (MAC, ACT, PRE) advanced by r*RowShift. Command IDs inside a
// body are dense from 0; Program.Expand renumbers them in stream order.
type Segment struct {
	Cmds     []Command
	Repeat   int
	RowShift int
}

// Program is a channel command stream as a sequence of segments. The
// kernel builders emit into the last segment and fold a detected period
// into a repeated one, so a program holds one copy of each body.
type Program struct {
	Segs []Segment
	// GBufEntries and OutEntries record the buffer geometry the program
	// was built for; schedulers validate against their device config.
	GBufEntries int
	OutEntries  int
}

// Reset empties the program for a new buffer geometry. It keeps the
// segment slots and their command slices' capacity, so a reused program
// stops allocating once it has held its largest build; a program that
// shares its commands (Stack.Program) must not be reset.
func (p *Program) Reset(gbufEntries, outEntries int) {
	p.Segs = p.Segs[:0]
	p.addSeg(1, 0)
	p.GBufEntries, p.OutEntries = gbufEntries, outEntries
}

// addSeg appends an empty segment, reusing the command capacity a reset
// left in its slot, and returns it.
func (p *Program) addSeg(repeat, rowShift int) *Segment {
	n := len(p.Segs)
	if n < cap(p.Segs) {
		p.Segs = p.Segs[:n+1]
	} else {
		p.Segs = append(p.Segs, Segment{})
	}
	sg := &p.Segs[n]
	sg.Cmds, sg.Repeat, sg.RowShift = sg.Cmds[:0], repeat, rowShift
	return sg
}

// push appends a command to the last segment, opening a one-shot one
// after a repeated body.
func (p *Program) push(c Command) {
	if len(p.Segs) == 0 || p.Segs[len(p.Segs)-1].Repeat != 1 {
		p.addSeg(1, 0)
	}
	last := &p.Segs[len(p.Segs)-1]
	c.ID = len(last.Cmds)
	last.Cmds = append(last.Cmds, c)
}

// WrInp appends a WR-INP command targeting the given GBuf entry.
func (p *Program) WrInp(gbuf int) { p.push(wrInp(gbuf)) }

// Mac appends a MAC command reading gbuf and accumulating into out at the
// DRAM location (row, col).
func (p *Program) Mac(gbuf, out, row, col int) { p.push(mac(gbuf, out, row, col)) }

// RdOut appends an RD-OUT command draining the given output entry.
func (p *Program) RdOut(out int) { p.push(rdOut(out)) }

// Act appends a row-activate command for the given row.
func (p *Program) Act(row int) { p.push(act(row)) }

// Pre appends a precharge command closing the given row.
func (p *Program) Pre(row int) { p.push(pre(row)) }

// Tail returns the number of commands in the last segment when it is
// one-shot (0 otherwise): the mark a builder passes to Fold.
func (p *Program) Tail() int {
	if len(p.Segs) == 0 || p.Segs[len(p.Segs)-1].Repeat != 1 {
		return 0
	}
	return len(p.Segs[len(p.Segs)-1].Cmds)
}

// Fold turns the commands the last one-shot segment received since mark
// (a Tail value) into a body emitted repeat times in total, rows advanced
// by rowShift per repeat. The body was emitted once already; the
// builder's state must stand where repeat copies would have left it.
func (p *Program) Fold(mark, repeat, rowShift int) {
	n := len(p.Segs) - 1
	if mark == 0 {
		p.Segs[n].Repeat, p.Segs[n].RowShift = repeat, rowShift
		return
	}
	body := p.Segs[n].Cmds[mark:]
	p.Segs[n].Cmds = p.Segs[n].Cmds[:mark]
	sg := p.addSeg(repeat, rowShift)
	sg.Cmds = append(sg.Cmds, body...)
	for i := range sg.Cmds {
		sg.Cmds[i].ID = i
	}
}

// Flat reports whether no segment repeats: the program's commands are
// then its segments' commands in order, one each.
func (p *Program) Flat() bool {
	for _, sg := range p.Segs {
		if sg.Repeat > 1 {
			return false
		}
	}
	return true
}

// Len is the number of commands in the expanded stream.
func (p *Program) Len() int {
	n := 0
	for _, sg := range p.Segs {
		n += sg.Repeat * len(sg.Cmds)
	}
	return n
}

// Counts tallies the expanded stream by kind. Validate rejects unknown
// kinds; Counts must only be called on a program that passed it.
func (p *Program) Counts() [NumKinds]int {
	var n [NumKinds]int
	for _, sg := range p.Segs {
		var b [NumKinds]int
		for i := range sg.Cmds {
			b[sg.Cmds[i].Kind]++
		}
		for k := range n {
			n[k] += sg.Repeat * b[k]
		}
	}
	return n
}

// Expand returns the program's command stream as a flat stack: every
// repeat of every body in order, rows shifted and IDs dense.
func (p *Program) Expand() *Stack {
	s := &Stack{Cmds: make([]Command, 0, p.Len()), GBufEntries: p.GBufEntries, OutEntries: p.OutEntries}
	for _, sg := range p.Segs {
		for r := 0; r < sg.Repeat; r++ {
			for _, c := range sg.Cmds {
				s.push(shiftRow(c, r*sg.RowShift))
			}
		}
	}
	return s
}

// shiftRow returns c with its DRAM row advanced by d if it carries one.
func shiftRow(c Command, d int) Command {
	if c.Row >= 0 {
		c.Row += d
	}
	return c
}

// validator is Validate's running state over the expanded stream.
type validator struct {
	written, accum []bool
	usesRowCmds    bool
	openRow        int
}

// body checks one repeat of a segment body with rows shifted by shift.
func (v *validator) body(cmds []Command, gbufEntries, outEntries, shift int) error {
	for i := range cmds {
		c := &cmds[i]
		if c.ID != i {
			return fmt.Errorf("command %d has ID %d, want dense IDs", i, c.ID)
		}
		row := c.Row // as Expand shifts it
		if row >= 0 {
			row += shift
		}
		switch c.Kind {
		case WRINP:
			if c.GBuf < 0 || c.GBuf >= gbufEntries {
				return fmt.Errorf("cmd %d WR-INP GBuf index %d out of range [0,%d)", i, c.GBuf, gbufEntries)
			}
			v.written[c.GBuf] = true
		case MAC:
			if c.GBuf < 0 || c.GBuf >= gbufEntries {
				return fmt.Errorf("cmd %d MAC GBuf index %d out of range", i, c.GBuf)
			}
			if !v.written[c.GBuf] {
				return fmt.Errorf("cmd %d MAC reads GBuf %d before any WR-INP", i, c.GBuf)
			}
			if c.Out < 0 || c.Out >= outEntries {
				return fmt.Errorf("cmd %d MAC Out index %d out of range [0,%d)", i, c.Out, outEntries)
			}
			if v.usesRowCmds && v.openRow != row {
				return fmt.Errorf("cmd %d MAC on row %d but open row is %d", i, row, v.openRow)
			}
			v.accum[c.Out] = true
		case RDOUT:
			if c.Out < 0 || c.Out >= outEntries {
				return fmt.Errorf("cmd %d RD-OUT Out index %d out of range", i, c.Out)
			}
			if !v.accum[c.Out] {
				return fmt.Errorf("cmd %d RD-OUT drains Out %d with no pending accumulation", i, c.Out)
			}
			v.accum[c.Out] = false
		case ACT:
			if v.openRow != -1 {
				return fmt.Errorf("cmd %d ACT row %d while row %d is open", i, row, v.openRow)
			}
			v.openRow = row
		case PRE:
			if v.openRow == -1 || v.openRow != row {
				return fmt.Errorf("cmd %d PRE row %d but open row is %d", i, row, v.openRow)
			}
			v.openRow = -1
		default:
			return fmt.Errorf("cmd %d has unknown kind %d", i, c.Kind)
		}
	}
	return nil
}

// Validate checks the invariants of the expanded stream: IDs are dense in
// every body, buffer indices are within the declared geometry, every MAC
// reads a GBuf entry that was written earlier, every RD-OUT drains an
// output entry some MAC accumulated into since the previous drain, and
// row commands alternate sensibly (no MAC on a closed row once any ACT
// appears). A repeated body is checked twice: its second repeat must
// leave the validator state (written entries, pending accumulations, and
// the open row moved by the row shift) where the first left it. That
// fixed point makes every later repeat the same check shifted by the row
// shift, so the whole stream is covered at the cost of two repeats.
// Errors name the segment; a negative repeat or an empty repeated body is
// an error too.
func (p *Program) Validate() error {
	v := validator{written: make([]bool, p.GBufEntries), accum: make([]bool, p.OutEntries), openRow: -1}
	for i, sg := range p.Segs {
		if sg.Repeat < 0 {
			return fmt.Errorf("pim: segment %d has negative repeat %d", i, sg.Repeat)
		}
		if sg.Repeat > 1 && len(sg.Cmds) == 0 {
			return fmt.Errorf("pim: segment %d repeats an empty body %d times", i, sg.Repeat)
		}
		if sg.Repeat == 0 {
			continue
		}
		for _, c := range sg.Cmds {
			if c.Kind == ACT || c.Kind == PRE {
				v.usesRowCmds = true
				break
			}
		}
	}
	var written, accum []bool
	for i, sg := range p.Segs {
		if sg.Repeat == 0 {
			continue
		}
		if err := v.body(sg.Cmds, p.GBufEntries, p.OutEntries, 0); err != nil {
			return fmt.Errorf("pim: segment %d: %w", i, err)
		}
		if sg.Repeat == 1 {
			continue
		}
		written, accum = append(written[:0], v.written...), append(accum[:0], v.accum...)
		open := v.openRow
		if err := v.body(sg.Cmds, p.GBufEntries, p.OutEntries, sg.RowShift); err != nil {
			return fmt.Errorf("pim: segment %d repeat 1: %w", i, err)
		}
		want := open
		if want >= 0 {
			want += sg.RowShift
		}
		if v.openRow != want || !slices.Equal(v.written, written) || !slices.Equal(v.accum, accum) {
			return fmt.Errorf("pim: segment %d: repeated body does not reach a fixed point (open row %d after repeat 1, want %d; written or pending buffers may differ too)", i, v.openRow, want)
		}
		if v.openRow >= 0 {
			v.openRow += (sg.Repeat - 2) * sg.RowShift
		}
	}
	return nil
}

// IOBytes returns the number of bytes moved over the channel I/O path
// (WR-INP input tiles plus RD-OUT output tiles) for the given tile size.
func (p *Program) IOBytes(tileBytes int) int64 {
	n := p.Counts()
	return int64(n[WRINP]+n[RDOUT]) * int64(tileBytes)
}

// DRAMBytes returns the bytes read from DRAM cells by MAC commands across
// all banks.
func (p *Program) DRAMBytes(tileBytes, banks int) int64 {
	return int64(p.Counts()[MAC]) * int64(tileBytes) * int64(banks)
}
