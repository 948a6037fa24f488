// Package pim models a single PIM channel at command granularity.
//
// A channel executes a linear stack of PIM commands. Three primitive kinds
// follow the paper's Table III: WR-INP copies one 32 B tile from the HUB GPR
// into a Global Buffer (GBuf) entry; MAC reads one GBuf entry, multiplies it
// against one DRAM column tile in every bank in parallel and accumulates
// into a per-bank output entry; RD-OUT drains one output entry from all
// banks (2 B per bank, 32 B total) back to the GPR. ACT/PRE row commands are
// materialised by the kernel builders when a MAC touches a closed row.
package pim

import "fmt"

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
func (s *Stack) WrInp(gbuf int) Command {
	return s.push(Command{Kind: WRINP, GBuf: gbuf, Out: -1, Row: -1, Col: -1})
}

// Mac appends a MAC command reading gbuf and accumulating into out at the
// DRAM location (row, col).
func (s *Stack) Mac(gbuf, out, row, col int) Command {
	return s.push(Command{Kind: MAC, GBuf: gbuf, Out: out, Row: row, Col: col})
}

// RdOut appends an RD-OUT command draining the given output entry.
func (s *Stack) RdOut(out int) Command {
	return s.push(Command{Kind: RDOUT, GBuf: -1, Out: out, Row: -1, Col: -1})
}

// Act appends a row-activate command for the given row.
func (s *Stack) Act(row int) Command {
	return s.push(Command{Kind: ACT, GBuf: -1, Out: -1, Row: row, Col: -1})
}

// Pre appends a precharge command closing the given row.
func (s *Stack) Pre(row int) Command {
	return s.push(Command{Kind: PRE, GBuf: -1, Out: -1, Row: row, Col: -1})
}

// Len is the number of commands in the stack.
func (s *Stack) Len() int { return len(s.Cmds) }

// Counts tallies commands by kind. Validate rejects unknown kinds; Counts
// must only be called on a stack that passed it.
func (s *Stack) Counts() [NumKinds]int {
	var n [NumKinds]int
	for i := range s.Cmds {
		n[s.Cmds[i].Kind]++
	}
	return n
}

// Validate checks stack-level invariants: IDs are dense and in order, buffer
// indices are within the declared geometry, every MAC reads a GBuf entry
// that was written earlier, every RD-OUT drains an output entry some MAC
// accumulated into since the previous drain, and row commands alternate
// sensibly (no MAC on a closed row once any ACT appears).
func (s *Stack) Validate() error {
	written := make([]bool, s.GBufEntries)
	accum := make([]bool, s.OutEntries)
	usesRowCmds := false
	for _, c := range s.Cmds {
		if c.Kind == ACT || c.Kind == PRE {
			usesRowCmds = true
			break
		}
	}
	openRow := -1
	for i, c := range s.Cmds {
		if c.ID != i {
			return fmt.Errorf("pim: command %d has ID %d, want dense IDs", i, c.ID)
		}
		switch c.Kind {
		case WRINP:
			if c.GBuf < 0 || c.GBuf >= s.GBufEntries {
				return fmt.Errorf("pim: cmd %d WR-INP GBuf index %d out of range [0,%d)", i, c.GBuf, s.GBufEntries)
			}
			written[c.GBuf] = true
		case MAC:
			if c.GBuf < 0 || c.GBuf >= s.GBufEntries {
				return fmt.Errorf("pim: cmd %d MAC GBuf index %d out of range", i, c.GBuf)
			}
			if !written[c.GBuf] {
				return fmt.Errorf("pim: cmd %d MAC reads GBuf %d before any WR-INP", i, c.GBuf)
			}
			if c.Out < 0 || c.Out >= s.OutEntries {
				return fmt.Errorf("pim: cmd %d MAC Out index %d out of range [0,%d)", i, c.Out, s.OutEntries)
			}
			if usesRowCmds && openRow != c.Row {
				return fmt.Errorf("pim: cmd %d MAC on row %d but open row is %d", i, c.Row, openRow)
			}
			accum[c.Out] = true
		case RDOUT:
			if c.Out < 0 || c.Out >= s.OutEntries {
				return fmt.Errorf("pim: cmd %d RD-OUT Out index %d out of range", i, c.Out)
			}
			if !accum[c.Out] {
				return fmt.Errorf("pim: cmd %d RD-OUT drains Out %d with no pending accumulation", i, c.Out)
			}
			accum[c.Out] = false
		case ACT:
			if openRow != -1 {
				return fmt.Errorf("pim: cmd %d ACT row %d while row %d is open", i, c.Row, openRow)
			}
			openRow = c.Row
		case PRE:
			if openRow == -1 || openRow != c.Row {
				return fmt.Errorf("pim: cmd %d PRE row %d but open row is %d", i, c.Row, openRow)
			}
			openRow = -1
		default:
			return fmt.Errorf("pim: cmd %d has unknown kind %d", i, c.Kind)
		}
	}
	return nil
}

// IOBytes returns the number of bytes moved over the channel I/O path
// (WR-INP input tiles plus RD-OUT output tiles) for the given tile size.
func (s *Stack) IOBytes(tileBytes int) int64 {
	var n int64
	for _, c := range s.Cmds {
		if c.Kind == WRINP || c.Kind == RDOUT {
			n += int64(tileBytes)
		}
	}
	return n
}

// DRAMBytes returns the bytes read from DRAM cells by MAC commands across
// all banks.
func (s *Stack) DRAMBytes(tileBytes, banks int) int64 {
	var n int64
	for _, c := range s.Cmds {
		if c.Kind == MAC {
			n += int64(tileBytes) * int64(banks)
		}
	}
	return n
}
