package clmids

// TestDocs is the documentation lint. It enforces the two invariants that
// keep a growing repo's prose trustworthy without manual review: every
// intra-repo markdown link resolves to a file that exists, and every
// exported Go identifier carries a doc comment. Both rot silently — a
// renamed file breaks the README's quickstart, an undocumented export
// breaks godoc — and both are mechanical to check.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDocs lints the repository this test runs in, bench/ included.
func TestDocs(t *testing.T) {
	problems, err := lintDocs(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// mdLink matches the target of an inline markdown link or image,
// [text](target); reference-style links are not used in this repo.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// lintDocs walks the repo at root and returns one problem per violation:
// a relative markdown link whose target does not exist, or an exported Go
// identifier without a doc comment. Problems are sorted by file for stable
// output.
func lintDocs(root string) ([]string, error) {
	var mdFiles, goDirs []string
	seenDir := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case strings.HasSuffix(path, ".md"):
			mdFiles = append(mdFiles, path)
		case strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			if dir := filepath.Dir(path); !seenDir[dir] {
				seenDir[dir] = true
				goDirs = append(goDirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, md := range mdFiles {
		ps, err := lintMarkdownLinks(md)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	for _, dir := range goDirs {
		ps, err := lintGoDocs(dir)
		if err != nil {
			return nil, err
		}
		problems = append(problems, ps...)
	}
	sort.Strings(problems)
	return problems, nil
}

// lintMarkdownLinks checks every relative link target in one markdown file
// against the filesystem. External URLs (any scheme), mailto links, and
// pure in-page anchors are out of scope; a #fragment on a file link is
// stripped before the existence check.
func lintMarkdownLinks(path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
		target := m[1]
		if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
		if _, err := os.Stat(resolved); err != nil {
			problems = append(problems, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
		}
	}
	return problems, nil
}

// lintGoDocs parses one directory's non-test Go files and reports every
// exported identifier that lacks a doc comment. Grouped const/var/type
// declarations count as documented when the group itself has one; methods
// are linted only when both the method and its receiver type are exported.
func lintGoDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Doc != nil {
						continue
					}
					if recv := receiverTypeName(d.Recv); recv != "" && !ast.IsExported(recv) {
						continue
					}
					report(d.Pos(), "function", d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && d.Doc == nil && s.Doc == nil {
									report(name.Pos(), "value", name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems, nil
}

// receiverTypeName unwraps a method receiver down to its base type name;
// "" for plain functions.
func receiverTypeName(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr:
			t = v.X
		case *ast.IndexListExpr:
			t = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLintDocsFlagsBrokenLinksAndMissingDocs(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md": "see [design](docs/DESIGN.md), [gone](docs/MISSING.md), " +
			"[anchor](docs/DESIGN.md#sec), [site](https://example.com/x.md), [self](#top)\n",
		"docs/DESIGN.md": "back to [readme](../README.md)\n",
		"pkg/pkg.go": "// Package pkg is linted.\npackage pkg\n\n" +
			"// Documented is fine.\nfunc Documented() {}\n\n" +
			"func Undocumented() {}\n\n" +
			"type hidden struct{}\n\n" +
			"func (hidden) Exported() {}\n", // unexported receiver: not linted
		"pkg/pkg_test.go": "package pkg\n\nfunc TestOnly() {}\n",
	})
	problems, err := lintDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(problems, "\n")
	if len(problems) != 2 {
		t.Fatalf("want exactly 2 problems, got %d:\n%s", len(problems), joined)
	}
	if !strings.Contains(joined, "MISSING.md") {
		t.Errorf("broken link not flagged:\n%s", joined)
	}
	if !strings.Contains(joined, "Undocumented") {
		t.Errorf("undocumented export not flagged:\n%s", joined)
	}
	for _, never := range []string{"Documented", "example.com", "TestOnly", "Exported"} {
		if strings.Contains(joined, never) {
			t.Errorf("false positive on %s:\n%s", never, joined)
		}
	}
}

func TestLintDocsCleanTree(t *testing.T) {
	root := writeTree(t, map[string]string{
		"README.md":    "[ok](sub/OTHER.md)\n",
		"sub/OTHER.md": "// grouped decls count as documented via the group comment\n",
		"pkg/pkg.go": "// Package pkg is linted.\npackage pkg\n\n" +
			"// Grouped constants share one doc comment.\nconst (\n\tA = 1\n\tB = 2\n)\n",
	})
	problems, err := lintDocs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean tree flagged: %v", problems)
	}
}
