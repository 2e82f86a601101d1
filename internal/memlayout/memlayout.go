// Package memlayout holds the serialized SRAM representation of classifier
// data structures: a multi-channel word image, a per-channel bump allocator,
// the pointer-word encoding shared by the tree classifiers, and the
// headroom-driven assignment of decision-tree levels to SRAM channels that
// reproduces Table 4 of the paper.
//
// The IXP2850 exposes four QDR SRAM channels with independent controllers;
// word-oriented (4-byte) access is the efficient granularity. All classifier
// images in this repository are arrays of 32-bit words addressed by
// (channel, word offset).
package memlayout

import (
	"fmt"
	"slices"
)

// NumChannels is the number of SRAM channels on the IXP2850.
const NumChannels = 4

// ChannelBytes is the capacity of one SRAM channel: the paper's platform
// has four 8 MB QDR SRAM chips.
const ChannelBytes = 8 << 20

// Image is a multi-channel SRAM word image with bump allocation.
type Image struct {
	chans [NumChannels][]uint32
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{}
}

// Alloc appends words to the channel and returns the word offset of the
// first appended word.
func (im *Image) Alloc(ch uint8, words []uint32) uint32 {
	if int(ch) >= NumChannels {
		panic(fmt.Sprintf("memlayout: channel %d out of range", ch))
	}
	off := uint32(len(im.chans[ch]))
	im.chans[ch] = append(im.chans[ch], words...)
	return off
}

// Grow makes room on the channel for n more words, so the next n words
// allocated there are not copied to a larger array.
func (im *Image) Grow(ch uint8, n int) {
	im.chans[ch] = slices.Grow(im.chans[ch], n)
}

// Reserve appends n zero words to the channel and returns the offset;
// callers patch the words later via Set.
func (im *Image) Reserve(ch uint8, n int) uint32 {
	off := uint32(len(im.chans[ch]))
	im.chans[ch] = append(im.chans[ch], make([]uint32, n)...)
	return off
}

// Set patches one word.
func (im *Image) Set(ch uint8, addr uint32, v uint32) {
	im.chans[ch][addr] = v
}

// Read returns words consecutive 32-bit words from (ch, addr). It panics on
// out-of-range access — a serialization bug, never a data-dependent event.
func (im *Image) Read(ch uint8, addr uint32, words int) []uint32 {
	end := int(addr) + words
	if int(ch) >= NumChannels || end > len(im.chans[ch]) {
		panic(fmt.Sprintf("memlayout: read [%d:%d] beyond channel %d length %d",
			addr, end, ch, len(im.chans[ch])))
	}
	return im.chans[ch][addr:end]
}

// ChannelWords returns the number of words allocated on each channel.
func (im *Image) ChannelWords() [NumChannels]int {
	var out [NumChannels]int
	for c := range im.chans {
		out[c] = len(im.chans[c])
	}
	return out
}

// TotalWords returns the total allocated words across channels.
func (im *Image) TotalWords() int {
	n := 0
	for c := range im.chans {
		n += len(im.chans[c])
	}
	return n
}

// TotalBytes returns the total allocated bytes across channels.
func (im *Image) TotalBytes() int { return im.TotalWords() * 4 }

// FitsHardware reports whether every channel fits its 8 MB SRAM chip — the
// feasibility check behind Figure 6's observation that un-aggregated
// ExpCuts cannot be loaded for the larger CR sets.
func (im *Image) FitsHardware() bool {
	for c := range im.chans {
		if len(im.chans[c])*4 > ChannelBytes {
			return false
		}
	}
	return true
}

// Pointer encoding shared by the serialized tree classifiers. A pointer
// word either designates a leaf (with an optional rule payload) or an
// internal node at (channel, offset).
//
//	bit 31        leaf flag
//	leaf:     bits 0..30  = rule index + 1 (0 = no match)
//	internal: bits 29..30 = channel, bits 0..28 = word offset
const (
	leafFlag    = uint32(1) << 31
	offsetBits  = 29
	offsetMask  = uint32(1)<<offsetBits - 1
	channelMask = uint32(3)
)

// MaxOffset is the largest encodable word offset (512 Mi words per channel,
// far beyond the 8 MB chips).
const MaxOffset = offsetMask

// LeafPtr encodes a leaf pointer. ruleIdx -1 encodes "no match".
func LeafPtr(ruleIdx int) uint32 {
	return leafFlag | uint32(ruleIdx+1)
}

// NodePtr encodes an internal-node pointer.
func NodePtr(ch uint8, off uint32) uint32 {
	if off > MaxOffset {
		panic(fmt.Sprintf("memlayout: offset %d exceeds pointer encoding", off))
	}
	return uint32(ch)<<offsetBits | off
}

// IsLeaf reports whether the pointer designates a leaf.
func IsLeaf(p uint32) bool { return p&leafFlag != 0 }

// LeafRule decodes the rule index of a leaf pointer (-1 = no match).
func LeafRule(p uint32) int { return int(p&^leafFlag) - 1 }

// NodeAddr decodes an internal-node pointer.
func NodeAddr(p uint32) (ch uint8, off uint32) {
	return uint8(p >> offsetBits & channelMask), p & offsetMask
}
