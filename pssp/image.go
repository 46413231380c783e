package pssp

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/abi"
	"repro/internal/asm"
	"repro/internal/binfmt"
	"repro/internal/cc"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rewrite"
)

// Image is a loadable binary image: the output of Compile and the input of
// Load. Images are immutable once built and safe to share across Machines.
type Image struct {
	bin *binfmt.Binary
}

// Symbol is one entry of an image's symbol table.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
}

// Name returns the program name recorded at compile time.
func (im *Image) Name() string { return im.bin.Meta["name"] }

// Scheme returns the protection scheme the image was compiled with (the
// zero Scheme if the metadata is missing or unknown).
func (im *Image) Scheme() Scheme {
	s, err := ParseScheme(im.bin.Meta[abi.MetaScheme])
	if err != nil {
		return 0
	}
	return s
}

// Linkage returns "static" or "dynamic".
func (im *Image) Linkage() string { return im.bin.Meta[abi.MetaLinkage] }

// CodeSize returns the total executable bytes.
func (im *Image) CodeSize() int { return im.bin.CodeSize() }

// TextSize returns the size of the .text section alone (the rewriter must
// keep it fixed; appended helper sections land elsewhere).
func (im *Image) TextSize() int {
	if t := im.bin.Text(); t != nil {
		return len(t.Data)
	}
	return 0
}

// TotalSize returns the loadable size of all sections.
func (im *Image) TotalSize() int { return im.bin.TotalSize() }

// Symbol looks up a symbol by name.
func (im *Image) Symbol(name string) (Symbol, bool) {
	s, ok := im.bin.Symbol(name)
	if !ok {
		return Symbol{}, false
	}
	return Symbol{Name: s.Name, Addr: s.Addr, Size: s.Size}, true
}

// Marshal encodes the image in the on-disk binary format.
func (im *Image) Marshal() []byte { return binfmt.Marshal(im.bin) }

// WriteFile marshals the image to path.
func (im *Image) WriteFile(path string) error {
	return os.WriteFile(path, im.Marshal(), 0o644)
}

// UnmarshalImage decodes an image previously produced by Marshal.
func UnmarshalImage(raw []byte) (*Image, error) {
	b, err := binfmt.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	return &Image{bin: b}, nil
}

// OpenImage reads and decodes an image file.
func OpenImage(path string) (*Image, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	im, err := UnmarshalImage(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return im, nil
}

// Disassembly renders every executable section of the image.
func (im *Image) Disassembly() string {
	var b strings.Builder
	for _, sec := range im.bin.Sections {
		if sec.Perm&mem.PermExec == 0 || len(sec.Data) == 0 {
			continue
		}
		fmt.Fprintf(&b, "section %s at 0x%x (%d bytes):\n", sec.Name, sec.Addr, len(sec.Data))
		b.WriteString(asm.Disassemble(sec.Data))
	}
	return b.String()
}

// DisassembleFunc disassembles one function; tailBytes > 0 restricts the
// output to roughly the last tailBytes of it (aligned to an instruction
// boundary), which is enough to show an epilogue.
func (im *Image) DisassembleFunc(name string, tailBytes int) (string, error) {
	sym, ok := im.bin.Symbol(name)
	if !ok {
		return "", fmt.Errorf("pssp: image %s has no symbol %q", im.Name(), name)
	}
	sec := im.bin.Text()
	if sec == nil {
		return "", fmt.Errorf("pssp: image %s has no .text section", im.Name())
	}
	start := int(sym.Addr - sec.Addr)
	end := start + int(sym.Size)
	from := start
	if tailBytes > 0 && end-tailBytes > start {
		from = end - tailBytes
	}
	// Align to an instruction boundary by decoding forward from the start.
	off := start
	for off < from {
		_, n, err := isa.Decode(sec.Data, off)
		if err != nil {
			break
		}
		off += n
	}
	return asm.Disassemble(sec.Data[off:end]), nil
}

// Rewrite runs the binary rewriter (paper Section V-C): it upgrades an
// SSP-compiled app image — and, for dynamically linked apps, its libc image —
// to P-SSP in place, preserving code size and stack layout. libc is nil for
// statically linked apps, and the returned libc is non-nil only when one was
// rewritten.
func Rewrite(app, libc *Image) (*Image, *Image, error) {
	var libcBin *binfmt.Binary
	if libc != nil {
		libcBin = libc.bin
	}
	newApp, newLibc, err := rewrite.Rewrite(app.bin, libcBin)
	if err != nil {
		return nil, nil, err
	}
	out := &Image{bin: newApp}
	if newLibc != nil {
		return out, &Image{bin: newLibc}, nil
	}
	return out, nil, nil
}

// compileConfig collects per-call compile options.
type compileConfig struct {
	scheme       Scheme
	linkage      string
	libc         *Image
	checkOnWrite bool
}

// CompileOption adjusts one Compile call away from the machine's defaults.
type CompileOption func(*compileConfig)

// CompileScheme overrides the machine's default protection scheme.
func CompileScheme(s Scheme) CompileOption {
	return func(c *compileConfig) { c.scheme = s }
}

// CompileDynamic links the program dynamically against the given libc image
// (build one with Machine.CompileLibc). The default is static linkage.
func CompileDynamic(libc *Image) CompileOption {
	return func(c *compileConfig) { c.linkage = abi.LinkDynamic; c.libc = libc }
}

// CompileCheckOnWrite makes write-checking passes (P-SSP-LV) verify their
// canaries right after each buffer write, in addition to the epilogue — the
// paper's §V-E2 early-detection option.
func CompileCheckOnWrite() CompileOption {
	return func(c *compileConfig) { c.checkOnWrite = true }
}

// Compile lowers a program under the machine's (or the options') protection
// scheme and links it into a loadable image. The default linkage is static.
func (m *Machine) Compile(prog *cc.Program, opts ...CompileOption) (*Image, error) {
	cfg := compileConfig{scheme: m.cfg.scheme, linkage: abi.LinkStatic}
	for _, o := range opts {
		o(&cfg)
	}
	ccOpts := cc.Options{
		Scheme:       cfg.scheme,
		Linkage:      cfg.linkage,
		CheckOnWrite: cfg.checkOnWrite,
	}
	if cfg.libc != nil {
		ccOpts.Libc = cfg.libc.bin
	}
	bin, _, err := cc.CachedCompile(prog, ccOpts, m.cfg.store)
	if err != nil {
		return nil, err
	}
	return &Image{bin: bin}, nil
}

// CompileLibc builds a shared C-library image under the given scheme, for
// dynamic linkage (CompileDynamic) and loading (LoadLibc).
func (m *Machine) CompileLibc(s Scheme) (*Image, error) {
	bin, err := cc.BuildLibc(s)
	if err != nil {
		return nil, err
	}
	return &Image{bin: bin}, nil
}
