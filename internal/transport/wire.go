package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format, little-endian:
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
// The pipelined data plane adds two frame forms on top of the classic
// one, each selected by a flag bit:
//
//   - Control (flagControl): a connection preamble. The seq field carries
//     the feature bits the writer will use on this connection (featBatch);
//     the payload is empty. A writer that uses any extended
//     form sends the preamble first; a reader that sees unknown feature
//     bits kills the connection instead of misparsing later traffic. A
//     first frame without flagControl marks a legacy (classic-only) peer.
//
//   - Batch (flagBatch, kind=0): a multi-frame envelope. The seq field is
//     the sub-frame count, the payload is the concatenation of sub-frames
//     `kind u8 | flags u8 | seq u64 | length u32 | payload`, and the outer
//     CRC covers the whole payload (sub-frames carry no individual CRC).
//     Batching lets one writev carry many messages — data decrements,
//     piggybacked acks and small fetch replies coalesce into one syscall.
//
// Flag bit 4 and feature bit 1 belonged to a retired compressed-payload
// form. Both stay reserved: a frame or preamble carrying either is a
// protocol error that kills the connection, never silently ignored.
const (
	frameHeaderLen = 1 + 1 + 4 + 8 + 4 + 4

	// subHeaderLen is the per-sub-frame header inside a batch envelope:
	// kind u8, flags u8, seq u64, length u32. No from (the envelope names
	// the sender) and no CRC (the envelope CRC covers everything).
	subHeaderLen = 1 + 1 + 8 + 4

	flagResponse      = 1 << 0
	flagError         = 1 << 1
	flagRequestMarker = 1 << 2 // Call request (needs a response)
	flagBatch         = 1 << 3
	flagRetired       = 1 << 4 // reserved, see above
	flagControl       = 1 << 5

	// Feature bits carried in a control preamble's seq field.
	featBatch = 1 << 0
	featAll   = featBatch
)

// maxFrameLen bounds a single payload; larger frames indicate corruption.
const maxFrameLen = 1 << 28 // 256 MiB

var crcTable = crc32.IEEETable

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

// putSubHeader appends a batch sub-frame header to dst.
func putSubHeader(dst []byte, kind, flags uint8, seq uint64, length int) []byte {
	var hdr [subHeaderLen]byte
	hdr[0] = kind
	hdr[1] = flags
	binary.LittleEndian.PutUint64(hdr[2:10], seq)
	binary.LittleEndian.PutUint32(hdr[10:14], uint32(length))
	return append(dst, hdr[:]...)
}

func writeFrame(w io.Writer, kind, flags uint8, from int, seq uint64, payload []byte) error {
	hdr := putFrameHeader(nil, kind, flags, from, seq, len(payload), crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

func readFrame(r io.Reader) (kind, flags uint8, from int, seq uint64, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	kind = hdr[0]
	flags = hdr[1]
	from = int(binary.LittleEndian.Uint32(hdr[2:6]))
	seq = binary.LittleEndian.Uint64(hdr[6:14])
	n := binary.LittleEndian.Uint32(hdr[14:18])
	sum := binary.LittleEndian.Uint32(hdr[18:22])
	if n > maxFrameLen {
		err = fmt.Errorf("transport: frame too large (%d bytes)", n)
		return
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err = io.ReadFull(r, payload); err != nil {
			return
		}
	}
	if crc32.ChecksumIEEE(payload) != sum {
		err = fmt.Errorf("transport: frame checksum mismatch (kind %d, %d bytes)", kind, n)
	}
	return
}

// walkBatch iterates the sub-frames of a CRC-verified batch payload,
// calling fn for each. It reports false on structural damage — a header
// that does not fit, a length past the end, trailing junk — or when fn
// itself reports failure.
func walkBatch(buf []byte, count uint64, fn func(kind, flags uint8, seq uint64, payload []byte) bool) bool {
	off := 0
	for i := uint64(0); i < count; i++ {
		if off+subHeaderLen > len(buf) {
			return false
		}
		kind := buf[off]
		flags := buf[off+1]
		seq := binary.LittleEndian.Uint64(buf[off+2 : off+10])
		n := int(binary.LittleEndian.Uint32(buf[off+10 : off+14]))
		off += subHeaderLen
		if n < 0 || n > len(buf)-off {
			return false
		}
		if !fn(kind, flags, seq, buf[off:off+n]) {
			return false
		}
		off += n
	}
	return off == len(buf)
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
