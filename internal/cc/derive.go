package cc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/abi"
	"repro/internal/binfmt"
	"repro/internal/isa"
	"repro/internal/store"
)

// PassVersion identifies the compiler's codegen + protection-pass pipeline.
// It is part of the artifact store's derivation key: any change that alters
// emitted code for the same (program, options) — a new lowering, a changed
// prologue sequence, a different frame layout — must bump it so stale cached
// images miss cleanly.
const PassVersion = 1

// ToolchainVersion names every code-affecting component version in one
// string — the "ISA/encoder version" field of the store's derivation key.
func ToolchainVersion() string {
	return fmt.Sprintf("cc=%d isa=%d binfmt=%d", PassVersion, isa.EncodingVersion, binfmt.Version)
}

// deriveWriter builds the canonical byte encodings below. Every variable-
// length field is length-prefixed and every list is emitted in declaration
// order, so the encoding is injective over the IR: two programs serialize
// identically iff they compile identically.
type deriveWriter struct{ b []byte }

func (w *deriveWriter) u8(v uint8)   { w.b = append(w.b, v) }
func (w *deriveWriter) i64(v int64)  { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }
func (w *deriveWriter) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *deriveWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.b = append(w.b, s...)
}
func (w *deriveWriter) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

// Statement type tags for the canonical encoding. The values are part of the
// derivation key; append, never renumber.
const (
	tagSetConst uint8 = iota + 1
	tagCopy
	tagBinOp
	tagCompute
	tagLoop
	tagWhile
	tagIf
	tagCall
	tagAccept
	tagReadInput
	tagWriteOutput
	tagLoadGlobal
	tagStoreGlobal
	tagReturn
)

func (w *deriveWriter) stmts(body []Stmt) {
	w.u64(uint64(len(body)))
	for _, s := range body {
		switch s := s.(type) {
		case SetConst:
			w.u8(tagSetConst)
			w.str(s.Dst)
			w.i64(s.Value)
		case Copy:
			w.u8(tagCopy)
			w.str(s.Dst)
			w.str(s.Src)
		case BinOp:
			w.u8(tagBinOp)
			w.str(s.Dst)
			w.str(s.Src)
			w.u8(uint8(s.Op))
		case Compute:
			w.u8(tagCompute)
			w.i64(int64(s.Ops))
		case Loop:
			w.u8(tagLoop)
			w.i64(int64(s.Count))
			w.stmts(s.Body)
		case While:
			w.u8(tagWhile)
			w.str(s.Var)
			w.stmts(s.Body)
		case If:
			w.u8(tagIf)
			w.str(s.Var)
			w.stmts(s.Body)
		case Call:
			w.u8(tagCall)
			w.str(s.Callee)
		case Accept:
			w.u8(tagAccept)
			w.str(s.Dst)
		case ReadInput:
			w.u8(tagReadInput)
			w.str(s.Buf)
			w.i64(int64(s.MaxLen))
			w.str(s.LenVar)
		case WriteOutput:
			w.u8(tagWriteOutput)
			w.str(s.Src)
			w.i64(int64(s.Len))
		case LoadGlobal:
			w.u8(tagLoadGlobal)
			w.str(s.Dst)
			w.str(s.Global)
		case StoreGlobal:
			w.u8(tagStoreGlobal)
			w.str(s.Global)
			w.str(s.Src)
		case Return:
			w.u8(tagReturn)
		default:
			// The Stmt set is closed; an unknown type means a new statement
			// was added without a tag. Poison the encoding so the key never
			// collides with a well-formed program.
			w.u8(0xff)
			w.str(fmt.Sprintf("%T", s))
		}
	}
}

// SourceBytes returns the canonical binary encoding of prog — the "source
// bytes" field of the artifact store's derivation key. The encoding covers
// every IR field the compiler reads (names, sizes, buffer/critical marks,
// full statement trees), so any semantic change to the program changes the
// key, while re-deriving the same program yields the same bytes.
func SourceBytes(prog *Program) []byte {
	w := &deriveWriter{}
	w.str(prog.Name)
	w.u64(uint64(len(prog.Globals)))
	for _, g := range prog.Globals {
		w.str(g.Name)
		w.i64(int64(g.Size))
	}
	w.u64(uint64(len(prog.Funcs)))
	for _, f := range prog.Funcs {
		w.str(f.Name)
		w.u64(uint64(len(f.Locals)))
		for _, l := range f.Locals {
			w.str(l.Name)
			w.i64(int64(l.Size))
			w.bool(l.IsBuffer)
			w.bool(l.Critical)
		}
		w.stmts(f.Body)
	}
	return w.b
}

// ConfigBytes returns the canonical encoding of every compile option that
// affects emitted code — the "compiler pass config" field of the derivation
// key. Defaults are resolved exactly as Compile resolves them, so an
// explicit option and its default never split the cache. The scheme is the
// derivation's own field; it appears here once more only in the slot that
// named the embedded libc's scheme, so existing keys still match.
func ConfigBytes(opts Options) []byte {
	w := &deriveWriter{}
	linkage := opts.Linkage
	if linkage == "" {
		linkage = abi.LinkDynamic
	}
	w.str(linkage)
	w.str(opts.Scheme.String())
	w.bool(opts.CheckOnWrite)
	// Dynamic linkage resolves externs against the libc image: its content
	// is an input to the emitted code, so fold its hash in.
	if opts.Libc != nil {
		sum := sha256.Sum256(binfmt.Marshal(opts.Libc))
		w.b = append(w.b, sum[:]...)
	}
	return w.b
}

// Derivation builds the artifact-store derivation identifying one
// compilation: source bytes, scheme, pass config, toolchain version. Its
// Key() is SHA-256 over the four fields, so flipping any one misses cleanly.
func Derivation(prog *Program, opts Options) store.Derivation {
	return store.Derivation{
		Source:  SourceBytes(prog),
		Scheme:  opts.Scheme.String(),
		Config:  ConfigBytes(opts),
		Version: ToolchainVersion(),
	}
}

// CachedCompile is Compile behind the artifact store: it derives the key
// for (prog, opts), serves a cached image on hit — from the store's
// in-process cache or an mmap'd on-disk blob, zero-copy — and compiles,
// stores and returns the image on miss. hit reports whether a build was
// avoided. A nil store degrades to a plain Compile.
func CachedCompile(prog *Program, opts Options, st *store.Store) (bin *binfmt.Binary, hit bool, err error) {
	if st == nil {
		bin, err = Compile(prog, opts)
		return bin, false, err
	}
	// Validate before hashing: a cached blob must never mask a program the
	// compiler would reject.
	if err := prog.Validate(); err != nil {
		return nil, false, err
	}
	return st.GetOrBuild(Derivation(prog, opts).Key(), prog.Name, opts.Scheme.String(),
		func() (*binfmt.Binary, error) { return Compile(prog, opts) })
}
