package kv

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"
)

// Word is one word cut from a buffer by ScanWords: where it lies, its
// KeyHash, and its first 8 bytes as a little-endian word, zero-padded
// past the word's end. The hash and prefix are computed in the same pass
// that finds the word, so a consumer never reads the word's bytes again
// to hash it.
type Word struct {
	Hash   uint64
	Prefix uint64
	Off    int // offset of the word in the scanned buffer
	Len    int
}

// WordEmitter is the word-count fast path: a Local that implements it
// cuts split into words itself, exactly as workload.Tokenize does, and
// folds val once per word using the hash and prefix the scan computed.
type WordEmitter[V any] interface {
	EmitWords(split []byte, val V)
}

// The hash secrets, drawn once per process like maphash's seed: an
// adversary who cannot read them cannot build colliding keys.
var (
	hashSeed = rand.Uint64()
	hashStep = rand.Uint64()
	hashLen  = rand.Uint64()
)

// mix is the folded multiply: the xor of the two halves of a 64×64-bit
// product, which spreads every input bit over both halves of the output.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// KeyHash is the one hash of a byte key, shared by every path into the
// flat combining container. It folds the key's little-endian 8-byte
// words one at a time, except the last 1–8 bytes, which are folded
// zero-padded together with the length, all under per-process secrets:
// one multiply for a key of up to 8 bytes, two up to 16. ScanWords
// computes the same value inline as it cuts a word.
func KeyHash(b []byte) uint64 {
	n := len(b)
	if n <= 8 {
		return ShortKeyHash(KeyPrefix(b), n)
	}
	if n <= 16 { // keyHashLong unrolled: one fold, then the last n-8 bytes
		h := mix(hashSeed^binary.LittleEndian.Uint64(b), hashStep)
		return mix(h^binary.LittleEndian.Uint64(b[n-8:])>>(128-8*n), hashLen^uint64(n))
	}
	return keyHashLong(b)
}

// ShortKeyHash is KeyHash of a key of n ≤ 8 bytes from its KeyPrefix
// alone: the flat container recomputes a short key's hash from the
// prefix and length its entry keeps, without reading the key's bytes.
func ShortKeyHash(prefix uint64, n int) uint64 {
	return mix(hashSeed^prefix, hashLen^uint64(n))
}

func keyHashLong(b []byte) uint64 {
	h, i := hashSeed, 0
	for ; len(b)-i > 8; i += 8 {
		h = mix(h^binary.LittleEndian.Uint64(b[i:]), hashStep)
	}
	// The last 1–8 bytes, from one load ending at the key's end.
	t := binary.LittleEndian.Uint64(b[len(b)-8:]) >> (64 - 8*(len(b)-i))
	return mix(h^t, hashLen^uint64(len(b)))
}

// KeyPrefix returns b's first 8 bytes as a little-endian word,
// zero-padded when b is shorter, with at most three loads and no copy.
func KeyPrefix(b []byte) uint64 {
	switch n := len(b); {
	case n >= 8:
		return binary.LittleEndian.Uint64(b)
	case n >= 4:
		// Two overlapping 4-byte loads.
		return uint64(binary.LittleEndian.Uint32(b)) | uint64(binary.LittleEndian.Uint32(b[n-4:]))<<(8*(n-4))
	case n > 0:
		return uint64(b[0]) | uint64(b[n/2])<<(8*(n/2)) | uint64(b[n-1])<<(8*(n-1))
	}
	return 0
}

// isDelim marks the word separators: ASCII space, newline, carriage
// return and tab.
var isDelim = [256]bool{' ': true, '\n': true, '\r': true, '\t': true}

const (
	lsbs = 0x0101010101010101
	low7 = 0x7f7f7f7f7f7f7f7f
	msbs = 0x8080808080808080
)

// delims flags with 0x80 exactly the separator bytes of the
// little-endian word x. It is the has-zero-byte test on x ^ broadcast(c)
// for each separator c, in the carry-free form: each byte's low 7 bits
// are summed with 0x7f on their own, so a flag is never a borrow from a
// lower byte, and a byte ≥ 0x80 is never flagged.
func delims(x uint64) uint64 {
	y := x & low7
	t := (y ^ lsbs*' ') + low7
	t &= (y ^ lsbs*'\n') + low7
	t &= (y ^ lsbs*'\r') + low7
	t &= (y ^ lsbs*'\t') + low7
	return ^(t | x) & msbs
}

// lowBytes is a mask of the bytes below the lowest flag of f (f != 0).
func lowBytes(f uint64) uint64 { return (f&-f)>>7 - 1 }

// spaceOrControl flags with 0x80 exactly the bytes of x below '!': the
// four separators and the other ASCII control bytes, which are word
// bytes. It is carry-free like delims, so every flag is exact.
func spaceOrControl(x uint64) uint64 {
	return ^((x & low7) + lsbs*(0x80-'!') | x) & msbs
}

// ScanWords cuts the words of buf from pos on into out, at most
// len(out) of them, and returns how many it wrote and where the next
// call resumes; the scan is done when next == len(buf). Words are the
// maximal runs of non-separator bytes, the cut workload.Tokenize makes.
//
// It reads 8 bytes at a time. One load at a word's start flags the
// bytes below '!' — a third of delims' work, and in text the only such
// bytes are separators — and when the first flagged byte is one, that
// load alone gives a word of up to 7 bytes its end, hash and prefix. A
// word that runs past the load, or holds another control byte, is cut
// by scanWord, and the last 7 bytes of buf go byte by byte, so nothing
// is read past it.
func ScanWords(buf []byte, pos int, out []Word) (n, next int) {
	for n < len(out) && len(buf)-pos >= 8 {
		x := binary.LittleEndian.Uint64(buf[pos:])
		f := spaceOrControl(x)
		if f&0x80 != 0 && isDelim[byte(x)] { // a separator run
			pos++
			continue
		}
		if f != 0 && f&0x80 == 0 {
			k := bits.TrailingZeros64(f) >> 3
			if isDelim[byte(x>>(8*k&63))] {
				t := x & lowBytes(f)
				out[n] = Word{Hash: ShortKeyHash(t, k), Prefix: t, Off: pos, Len: k}
				n++
				pos += k + 1
				continue
			}
		}
		out[n] = scanWord(buf, pos)
		pos += out[n].Len
		n++
	}
	for ; n < len(out); n++ {
		for pos < len(buf) && isDelim[buf[pos]] {
			pos++
		}
		if pos == len(buf) {
			break
		}
		out[n] = scanWord(buf, pos)
		pos += out[n].Len
	}
	return n, pos
}

// scanWord cuts the word starting at buf[start], a non-separator: the
// general case behind ScanWords' one-load fast path. Each full 8 bytes
// with more of the word after them fold into the hash; the last 1–8
// bytes fold with the length.
func scanWord(buf []byte, start int) Word {
	h, prefix := hashSeed, uint64(0)
	for pos := start; ; pos += 8 {
		var t uint64
		k := 0
		if len(buf)-pos >= 8 {
			x := binary.LittleEndian.Uint64(buf[pos:])
			if d := delims(x); d != 0 {
				t, k = x&lowBytes(d), bits.TrailingZeros64(d)>>3
			} else if pos+8 == len(buf) || isDelim[buf[pos+8]] {
				t, k = x, 8
			} else {
				if pos == start {
					prefix = x
				}
				h = mix(h^x, hashStep)
				continue
			}
		} else {
			for ; pos+k < len(buf) && !isDelim[buf[pos+k]]; k++ {
				t |= uint64(buf[pos+k]) << (8 * k)
			}
		}
		if pos == start {
			prefix = t
		}
		n := pos + k - start
		return Word{Hash: mix(h^t, hashLen^uint64(n)), Prefix: prefix, Off: start, Len: n}
	}
}
