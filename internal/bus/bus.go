// Package bus models the switching activity of the address and data buses
// between the processor, the cache, and the off-chip memory. The paper's
// energy model (§2.3) needs two inputs from it:
//
//   - Add_bs — the average number of bit switches on the address bus per
//     access, computed assuming Gray-code encoding of the address lines;
//   - Data_bs — the data-bus activity factor, which the paper fixes as an
//     assumed constant (0.5 here; the sentence in the available text is
//     truncated, see DESIGN.md).
package bus

import "memexplore/internal/trace"

// ToGray converts a binary value to its reflected-binary Gray code.
func ToGray(v uint64) uint64 { return v ^ (v >> 1) }

// FromGray converts a reflected-binary Gray code back to binary.
func FromGray(g uint64) uint64 {
	v := g
	for shift := uint(1); shift < 64; shift <<= 1 {
		v ^= v >> shift
	}
	return v
}

// popcount64 counts set bits.
func popcount64(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// Encoding selects how addresses are driven onto the bus.
type Encoding int

const (
	// Gray drives addresses in reflected-binary Gray code, the paper's
	// assumption: consecutive addresses differ in exactly one bit.
	Gray Encoding = iota
	// Binary drives raw binary addresses, the ablation baseline.
	Binary
)

// String returns the encoding name.
func (e Encoding) String() string {
	if e == Gray {
		return "gray"
	}
	return "binary"
}

// SwitchCounter accumulates bit-switch counts on a bus that is driven with
// a sequence of values.
type SwitchCounter struct {
	enc      Encoding
	prev     uint64
	prevSet  bool
	switches uint64
	drives   uint64
}

// NewSwitchCounter returns a counter for the given encoding.
func NewSwitchCounter(enc Encoding) *SwitchCounter {
	return &SwitchCounter{enc: enc}
}

// Drive places v on the bus and accumulates the Hamming distance to the
// previous value under the configured encoding. The first drive switches
// no lines (the bus state before it is unknown/undefined).
func (c *SwitchCounter) Drive(v uint64) {
	enc := v
	if c.enc == Gray {
		enc = ToGray(v)
	}
	if c.prevSet {
		c.switches += uint64(popcount64(enc ^ c.prev))
	}
	c.prev = enc
	c.prevSet = true
	c.drives++
}

// DriveRefs drives the address of every reference of block, in order.
func (c *SwitchCounter) DriveRefs(block []trace.Ref) {
	for _, r := range block {
		c.Drive(r.Addr)
	}
}

// Switches returns the total number of bit switches observed.
func (c *SwitchCounter) Switches() uint64 { return c.switches }

// Drives returns how many values were driven.
func (c *SwitchCounter) Drives() uint64 { return c.drives }

// PerDrive returns the average switches per drive (0 if nothing driven).
func (c *SwitchCounter) PerDrive() float64 {
	if c.drives == 0 {
		return 0
	}
	return float64(c.switches) / float64(c.drives)
}

// Reset clears the counter, including the remembered bus state.
func (c *SwitchCounter) Reset() {
	c.prev, c.prevSet, c.switches, c.drives = 0, false, 0, 0
}

// Activity summarizes the bus behaviour of a whole trace.
type Activity struct {
	// Encoding used on the address bus.
	Encoding Encoding
	// References driven.
	References uint64
	// AddrSwitches is the total address-bus bit switches.
	AddrSwitches uint64
}

// AddBS returns the average address-bus switches per reference — the
// Add_bs term of the paper's energy model.
func (a Activity) AddBS() float64 {
	if a.References == 0 {
		return 0
	}
	return float64(a.AddrSwitches) / float64(a.References)
}

// MeasureTrace drives every reference address of the trace over an address
// bus with the given encoding and returns the observed activity.
func MeasureTrace(tr *trace.Trace, enc Encoding) Activity {
	c := NewSwitchCounter(enc)
	for i := 0; i < tr.Len(); i++ {
		c.Drive(tr.At(i).Addr)
	}
	return Activity{Encoding: enc, References: c.Drives(), AddrSwitches: c.Switches()}
}

// DefaultDataActivity is the assumed data-bus switching factor Data_bs:
// the fraction of data-bus lines that switch per transferred word.
const DefaultDataActivity = 0.5
