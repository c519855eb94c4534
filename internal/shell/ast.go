package shell

import "strings"

// Node is implemented by every AST node.
type Node interface {
	// String reconstructs a canonical source form of the node.
	String() string
	// Position returns the byte offset of the node's first token.
	Position() int
}

// Line is the root node: a full command line consisting of one or more
// and-or lists separated by ';' or '&'.
type Line struct {
	Items []*ListItem
	Pos   int
}

// ListItem is one and-or list plus the separator that follows it
// (";", "&", or "" for the last item).
type ListItem struct {
	AndOr *AndOr
	Sep   string
}

// AndOr is a sequence of pipelines joined by '&&' and '||'.
type AndOr struct {
	// Pipelines has one more element than Ops.
	Pipelines []*Pipeline
	// Ops[i] joins Pipelines[i] and Pipelines[i+1]; each is "&&" or "||".
	Ops []string
	Pos int
}

// Pipeline is a sequence of commands joined by '|' or '|&'.
type Pipeline struct {
	// Negated is true when the pipeline is prefixed by '!'.
	Negated bool
	// Commands has one more element than Ops.
	Commands []Command
	// Ops[i] joins Commands[i] and Commands[i+1]; each is "|" or "|&".
	Ops []string
	Pos int
}

// Command is either a *SimpleCommand or a *Subshell.
type Command interface {
	Node
	commandNode()
}

// SimpleCommand is a command name with assignments, arguments, and
// redirections, e.g. `FOO=1 curl -fsSL https://x/y.sh`.
type SimpleCommand struct {
	// Assignments are the leading NAME=value words.
	Assignments []*Word
	// Words are the command name (Words[0], if any) and its arguments.
	Words []*Word
	// Redirects are the redirections attached to the command.
	Redirects []*Redirect
	Pos       int
}

// Subshell is a parenthesized command list.
type Subshell struct {
	Inner     *Line
	Redirects []*Redirect
	Pos       int
}

// Redirect is a single redirection such as `2>> /var/log/x` or `<& 3`.
type Redirect struct {
	// N is the explicit file-descriptor number as written, or "" when absent.
	N string
	// Op is the operator text (">", ">>", "<", "<<", ">&", ...).
	Op string
	// Target is the word the redirection applies to.
	Target *Word
	Pos    int
}

func (*SimpleCommand) commandNode() {}
func (*Subshell) commandNode()      {}

// Position implements Node.
func (l *Line) Position() int { return l.Pos }

// Position implements Node.
func (a *AndOr) Position() int { return a.Pos }

// Position implements Node.
func (p *Pipeline) Position() int { return p.Pos }

// Position implements Node.
func (c *SimpleCommand) Position() int { return c.Pos }

// Position implements Node.
func (s *Subshell) Position() int { return s.Pos }

// Position implements Node.
func (r *Redirect) Position() int { return r.Pos }

// String reconstructs the line in canonical spacing.
func (l *Line) String() string {
	var b strings.Builder
	for i, it := range l.Items {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(it.AndOr.String())
		switch it.Sep {
		case ";":
			b.WriteString(" ;")
		case "&":
			b.WriteString(" &")
		}
	}
	return b.String()
}

// String implements Node.
func (a *AndOr) String() string {
	var b strings.Builder
	for i, p := range a.Pipelines {
		if i > 0 {
			b.WriteByte(' ')
			b.WriteString(a.Ops[i-1])
			b.WriteByte(' ')
		}
		b.WriteString(p.String())
	}
	return b.String()
}

// String implements Node.
func (p *Pipeline) String() string {
	var b strings.Builder
	if p.Negated {
		b.WriteString("! ")
	}
	for i, c := range p.Commands {
		if i > 0 {
			b.WriteByte(' ')
			b.WriteString(p.Ops[i-1])
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// String implements Node. Redirects follow the words, except when the
// line would then start with a "!" word: the parser reads a leading "!"
// as pipeline negation, so `<0 !` prints as "< 0 !", not "! < 0".
func (c *SimpleCommand) String() string {
	parts := make([]string, 0, len(c.Assignments)+len(c.Words)+len(c.Redirects))
	for _, a := range c.Assignments {
		parts = append(parts, a.Raw)
	}
	redirectsFirst := len(c.Assignments) == 0 && len(c.Words) > 0 && c.Words[0].Raw == "!"
	if !redirectsFirst {
		for _, w := range c.Words {
			parts = append(parts, w.Raw)
		}
	}
	for _, r := range c.Redirects {
		parts = append(parts, r.String())
	}
	if redirectsFirst {
		for _, w := range c.Words {
			parts = append(parts, w.Raw)
		}
	}
	return strings.Join(parts, " ")
}

// String implements Node.
func (s *Subshell) String() string {
	var b strings.Builder
	b.WriteString("( ")
	b.WriteString(s.Inner.String())
	b.WriteString(" )")
	for _, r := range s.Redirects {
		b.WriteByte(' ')
		b.WriteString(r.String())
	}
	return b.String()
}

// String implements Node.
func (r *Redirect) String() string {
	var b strings.Builder
	b.WriteString(r.N)
	b.WriteString(r.Op)
	if r.Target != nil {
		b.WriteByte(' ')
		b.WriteString(r.Target.Raw)
	}
	return b.String()
}

// Walk calls fn for every node in the tree rooted at n, in source order.
// Walking stops early if fn returns false.
func Walk(n Node, fn func(Node) bool) bool {
	if n == nil || !fn(n) {
		return false
	}
	switch t := n.(type) {
	case *Line:
		for _, it := range t.Items {
			if !Walk(it.AndOr, fn) {
				return false
			}
		}
	case *AndOr:
		for _, p := range t.Pipelines {
			if !Walk(p, fn) {
				return false
			}
		}
	case *Pipeline:
		for _, c := range t.Commands {
			if !Walk(c, fn) {
				return false
			}
		}
	case *Subshell:
		if !Walk(t.Inner, fn) {
			return false
		}
		for _, r := range t.Redirects {
			if !Walk(r, fn) {
				return false
			}
		}
	case *SimpleCommand:
		for _, r := range t.Redirects {
			if !Walk(r, fn) {
				return false
			}
		}
	}
	return true
}

// SimpleCommands returns every simple command in the tree, in source order,
// including those nested in subshells and pipelines.
func (l *Line) SimpleCommands() []*SimpleCommand {
	var out []*SimpleCommand
	Walk(l, func(n Node) bool {
		if sc, ok := n.(*SimpleCommand); ok {
			out = append(out, sc)
		}
		return true
	})
	return out
}
