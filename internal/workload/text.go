package workload

import (
	"math/rand"
	"strings"

	"supmr/internal/kv"
	"supmr/internal/storage"
)

// TextGen produces word-count input: space/newline-separated words drawn
// from a Zipf-distributed vocabulary, the skew real text exhibits (and
// what makes the hash container's combiner effective: a huge input set
// shrinks to a small intermediate set).
//
// Content is generated in fixed-size blocks so any byte range is a pure
// function of (Seed, block index). Every block ends at a word boundary
// (padded with newlines), so blocks never split words; chunk boundary
// adjustment is still exercised because chunks cut blocks mid-word.
type TextGen struct {
	Seed      int64
	Vocab     int     // vocabulary size; 0 means DefaultVocab
	ZipfS     float64 // Zipf skew; 0 means 1.2
	BlockSize int     // generation block; 0 means 4096
}

// Default text generation parameters.
const (
	DefaultVocab     = 50000
	DefaultZipfS     = 1.2
	DefaultTextBlock = 4096
)

func (g TextGen) vocab() int {
	if g.Vocab > 0 {
		return g.Vocab
	}
	return DefaultVocab
}

func (g TextGen) zipfS() float64 {
	if g.ZipfS > 1.0 {
		return g.ZipfS
	}
	return DefaultZipfS
}

func (g TextGen) block() int {
	if g.BlockSize > 0 {
		return g.BlockSize
	}
	return DefaultTextBlock
}

// syllables compose pronounceable deterministic words.
var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
	"ta", "te", "ti", "to", "tu", "za", "ze", "zi", "zo", "zu",
}

// Word returns vocabulary entry rank (0 = most frequent). Words get
// longer as rank grows, mimicking natural lexicons.
func Word(rank int) string {
	var b strings.Builder
	n := 2
	for r := rank; r >= len(syllables)*len(syllables); r /= len(syllables) {
		n++
	}
	x := rank
	for i := 0; i < n; i++ {
		b.WriteString(syllables[x%len(syllables)])
		x /= len(syllables)
	}
	return b.String()
}

// fillBlock writes exactly blockSize bytes of text for block bi into dst.
func (g TextGen) fillBlock(bi int64, dst []byte) {
	rng := rand.New(rand.NewSource(g.Seed ^ (bi+1)*0x5851f42d4c957f2d))
	zipf := rand.NewZipf(rng, g.zipfS(), 1, uint64(g.vocab()-1))
	pos := 0
	wordsOnLine := 0
	for {
		w := Word(int(zipf.Uint64()))
		sep := byte(' ')
		wordsOnLine++
		if wordsOnLine >= 12 {
			sep = '\n'
			wordsOnLine = 0
		}
		if pos+len(w)+1 > len(dst) {
			break
		}
		copy(dst[pos:], w)
		pos += len(w)
		dst[pos] = sep
		pos++
	}
	// Pad the tail with newlines so the block ends on a word boundary.
	for ; pos < len(dst); pos++ {
		dst[pos] = '\n'
	}
}

// Fill returns a storage.Fill over the infinite text stream.
func (g TextGen) Fill() storage.Fill {
	bs := g.block()
	return func(off int64, p []byte) {
		block := make([]byte, bs)
		for len(p) > 0 {
			bi := off / int64(bs)
			in := off % int64(bs)
			g.fillBlock(bi, block)
			n := copy(p, block[in:])
			p = p[n:]
			off += int64(n)
		}
	}
}

// File creates a simulated text file of size bytes on dev.
func (g TextGen) File(name string, size int64, dev storage.Device) (*storage.File, error) {
	return storage.NewFile(name, size, 0, g.Fill(), dev)
}

// FileSet creates count text files of fileSize bytes each on dev, laid
// out at distinct device extents — the many-small-files shape of a
// Hadoop-style word count input for intra-file chunking.
func (g TextGen) FileSet(prefix string, count int, fileSize int64, dev storage.Device) (*storage.FileSet, error) {
	files := make([]*storage.File, count)
	for i := range files {
		sub := TextGen{Seed: g.Seed + int64(i)*7919, Vocab: g.Vocab, ZipfS: g.ZipfS, BlockSize: g.BlockSize}
		f, err := storage.NewFile(
			nameIndexed(prefix, i), fileSize, int64(i)*fileSize, sub.Fill(), dev)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return storage.NewFileSet(files), nil
}

func nameIndexed(prefix string, i int) string {
	return prefix + "-" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}

// Tokenize splits text into words on ASCII space, newline, carriage
// return and tab (kv.ScanWords' cut), calling fn for each word. It
// allocates nothing: fn receives sub-slices of buf.
func Tokenize(buf []byte, fn func(word []byte)) {
	var words [64]kv.Word
	for pos := 0; pos < len(buf); {
		n, next := kv.ScanWords(buf, pos, words[:])
		for _, w := range words[:n] {
			fn(buf[w.Off : w.Off+w.Len])
		}
		pos = next
	}
}
