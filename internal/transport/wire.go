package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format, little-endian — the one frame form every message takes:
//
//	kind   uint8   message kind (application-defined)
//	flags  uint8   see flag bits below
//	from   uint32  sender place id
//	seq    uint64  request sequence number (echoed in the response)
//	length uint32  payload length
//	crc    uint32  IEEE CRC-32 of the payload
//	payload [length]byte
//
// Response frames carry kind=0 and, when flagError is set, the payload is
// an error string instead of reply data. The checksum guards against
// framing bugs and partial writes — a corrupted frame kills the
// connection rather than delivering garbage to a handler.
//
// Frames are self-delimiting, so a writer coalesces by putting several
// back to back in one vectored write (pipeline.go); the stream needs no
// envelope, preamble or negotiation for that.
//
// Flag bits 8, 16 and 32 belonged to retired frame forms (a multi-frame
// batch envelope, a compressed payload, a connection preamble). All three
// stay reserved: a frame carrying any of them is a protocol error that
// kills the connection, never silently ignored.
const (
	frameHeaderLen = 1 + 1 + 4 + 8 + 4 + 4

	flagResponse      = 1 << 0
	flagError         = 1 << 1
	flagRequestMarker = 1 << 2 // Call request (needs a response)
	flagsReserved     = 1<<3 | 1<<4 | 1<<5
)

// maxFrameLen bounds a single payload; larger frames indicate corruption.
const maxFrameLen = 1 << 28 // 256 MiB

// putFrameHeader appends a classic frame header to dst.
func putFrameHeader(dst []byte, kind, flags uint8, from int, seq uint64, length int, crc uint32) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0] = kind
	hdr[1] = flags
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(from))
	binary.LittleEndian.PutUint64(hdr[6:14], seq)
	binary.LittleEndian.PutUint32(hdr[14:18], uint32(length))
	binary.LittleEndian.PutUint32(hdr[18:22], crc)
	return append(dst, hdr[:]...)
}

// frameHeader is a decoded frame header.
type frameHeader struct {
	kind, flags uint8
	from        int
	seq         uint64
	n, crc      uint32
}

// parseFrameHeader decodes hdr and rejects what no writer produces: a
// reserved flag bit, or a length past maxFrameLen.
func parseFrameHeader(hdr *[frameHeaderLen]byte) (frameHeader, error) {
	h := frameHeader{
		kind:  hdr[0],
		flags: hdr[1],
		from:  int(binary.LittleEndian.Uint32(hdr[2:6])),
		seq:   binary.LittleEndian.Uint64(hdr[6:14]),
		n:     binary.LittleEndian.Uint32(hdr[14:18]),
		crc:   binary.LittleEndian.Uint32(hdr[18:22]),
	}
	switch {
	case h.flags&flagsReserved != 0:
		return h, fmt.Errorf("transport: frame carries reserved flag bits %#x", h.flags&flagsReserved)
	case h.n > maxFrameLen:
		return h, fmt.Errorf("transport: frame too large (%d bytes)", h.n)
	}
	return h, nil
}

// readFrame reads one whole frame into a fresh buffer: the unpooled
// reference reader the tests and fuzz targets parse streams with (the
// endpoint's readLoop shares parseFrameHeader but reads into recvBufs).
func readFrame(r io.Reader) (kind, flags uint8, from int, seq uint64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	h, err := parseFrameHeader(&hdr)
	if err != nil {
		return
	}
	if h.n > 0 {
		payload = make([]byte, h.n)
		if _, err = io.ReadFull(r, payload); err != nil {
			return
		}
	}
	if crc32.ChecksumIEEE(payload) != h.crc {
		err = fmt.Errorf("transport: frame checksum mismatch (kind %d, %d bytes)", h.kind, h.n)
	}
	return h.kind, h.flags, h.from, h.seq, payload, err
}

// Wire errors preserve ErrDeadPlace identity across the connection so the
// engine's recovery trigger works in multi-process mode too.
func encodeWireError(err error) []byte {
	if err == ErrDeadPlace {
		return []byte("\x01" + err.Error())
	}
	return []byte("\x00" + err.Error())
}

func decodeWireError(b []byte) error {
	if len(b) == 0 {
		return fmt.Errorf("transport: remote error")
	}
	if b[0] == 1 {
		return ErrDeadPlace
	}
	return fmt.Errorf("transport: remote error: %s", b[1:])
}
