#include "parser/parser.h"

#include <map>
#include <set>
#include <vector>

#include "ir/instructions.h"
#include "parser/lexer.h"
#include "support/error.h"

namespace llva {

namespace {

/**
 * Two-pass recursive-descent parser. Pass 1 registers named types,
 * global variables, and function signatures (skipping bodies and
 * initializers) so pass 2 can resolve forward references between
 * top-level entities; pass 2 fills in initializers and bodies.
 */
class Parser
{
  public:
    Parser(const std::string &src, Module &m)
        : src_(src), m_(m)
    {}

    /**
     * Failure cleanup: forward-reference placeholders are owned by
     * the parser until resolution, so an abandoned parse must free
     * the ones still outstanding. The module's instructions may
     * still use them: those uses move to the module's own undef
     * first, so the module can drop its edges in one pass when it
     * dies.
     */
    void
    freeForwardPlaceholders()
    {
        for (auto &[name, fwd] : forwards_) {
            fwd->replaceAllUsesWith(m_.constantUndef(fwd->type()));
            delete fwd;
        }
        forwards_.clear();
    }

    void
    run()
    {
        signaturesOnly_ = true;
        parseModule();
        signaturesOnly_ = false;
        parseModule();
        for (const auto &[name, st] : m_.types().namedTypes())
            if (!definedTypes_.count(name))
                fatal("named type %%%s referenced but never defined",
                      name.c_str());
    }

  private:
    // --- Token helpers -------------------------------------------------

    const Token &cur() { return lex_->current(); }

    Token take() { return lex_->take(); }

    bool
    isWord(const char *w)
    {
        return cur().kind == TokKind::Word && cur().text == w;
    }

    bool
    acceptWord(const char *w)
    {
        if (!isWord(w))
            return false;
        take();
        return true;
    }

    void
    expectWord(const char *w)
    {
        if (!acceptWord(w))
            fatal("line %d:%d: expected '%s'", cur().line, cur().col, w);
    }

    Token
    expect(TokKind kind, const char *what)
    {
        if (cur().kind != kind)
            fatal("line %d:%d: expected %s", cur().line, cur().col, what);
        return take();
    }

    bool
    accept(TokKind kind)
    {
        if (cur().kind != kind)
            return false;
        take();
        return true;
    }

    // --- Types ---------------------------------------------------------

    /** True if the current token can begin a type. */
    bool
    atType()
    {
        if (cur().kind == TokKind::Var)
            return true;
        if (cur().kind == TokKind::LBrace ||
            cur().kind == TokKind::LBracket)
            return true;
        return cur().kind == TokKind::Word &&
               m_.types().primByName(cur().text) != nullptr;
    }

    Type *
    parseType()
    {
        Type *base = parseBaseType();
        // Postfix: pointers and function types.
        while (true) {
            if (accept(TokKind::Star)) {
                base = m_.types().pointerTo(base);
            } else if (cur().kind == TokKind::LParen) {
                take();
                std::vector<Type *> params;
                bool vararg = false;
                if (!accept(TokKind::RParen)) {
                    while (true) {
                        if (accept(TokKind::Ellipsis)) {
                            vararg = true;
                            break;
                        }
                        params.push_back(parseType());
                        if (!accept(TokKind::Comma))
                            break;
                    }
                    expect(TokKind::RParen, "')'");
                }
                base = m_.types().functionOf(base, params, vararg);
            } else {
                break;
            }
        }
        return base;
    }

    Type *
    parseBaseType()
    {
        if (cur().kind == TokKind::Word) {
            Type *prim = m_.types().primByName(cur().text);
            if (!prim)
                fatal("line %d:%d: unknown type '%s'", cur().line, cur().col,
                      cur().text.c_str());
            take();
            return prim;
        }
        if (cur().kind == TokKind::Var) {
            Token t = take();
            return m_.types().getOrCreateNamedStruct(t.text);
        }
        if (accept(TokKind::LBrace)) {
            std::vector<Type *> fields;
            if (!accept(TokKind::RBrace)) {
                while (true) {
                    fields.push_back(parseType());
                    if (!accept(TokKind::Comma))
                        break;
                }
                expect(TokKind::RBrace, "'}'");
            }
            return m_.types().structOf(fields);
        }
        if (accept(TokKind::LBracket)) {
            Token n = expect(TokKind::IntLit, "array length");
            expectWord("x");
            Type *elem = parseType();
            expect(TokKind::RBracket, "']'");
            return m_.types().arrayOf(elem, n.intBits);
        }
        fatal("line %d:%d: expected type", cur().line, cur().col);
    }

    // --- Module level ----------------------------------------------------

    void
    parseModule()
    {
        Lexer lexer(src_);
        lex_ = &lexer;
        while (cur().kind != TokKind::Eof) {
            if (acceptWord("target")) {
                parseTargetSpec();
            } else if (acceptWord("declare")) {
                parseDeclare();
            } else if (cur().kind == TokKind::Var) {
                // %name = type ... | %name = global/constant ...
                Token name = take();
                expect(TokKind::Equal, "'='");
                if (acceptWord("type"))
                    parseTypeDef(name.text);
                else
                    parseGlobal(name.text);
            } else {
                parseFunctionDef();
            }
        }
        lex_ = nullptr;
    }

    void
    parseTargetSpec()
    {
        TargetFlags flags = m_.targetFlags();
        if (acceptWord("pointersize")) {
            expect(TokKind::Equal, "'='");
            Token n = expect(TokKind::IntLit, "pointer size");
            // Accept both bit (32/64) and byte (4/8) spellings.
            uint64_t v = n.intBits;
            if (v == 32 || v == 64)
                v /= 8;
            if (v != 4 && v != 8)
                fatal("line %d:%d: pointer size must be 32 or 64 bits",
                      n.line, n.col);
            flags.pointerSize = static_cast<unsigned>(v);
        } else if (acceptWord("endian")) {
            expect(TokKind::Equal, "'='");
            if (acceptWord("little"))
                flags.bigEndian = false;
            else if (acceptWord("big"))
                flags.bigEndian = true;
            else
                fatal("line %d:%d: expected 'little' or 'big'", cur().line, cur().col);
        } else {
            fatal("line %d:%d: unknown target property", cur().line, cur().col);
        }
        if (signaturesOnly_)
            m_.setTargetFlags(flags);
    }

    void
    parseTypeDef(const std::string &name)
    {
        StructType *st = m_.types().getOrCreateNamedStruct(name);
        Type *body = parseType();
        auto *bodyStruct = dyn_cast<StructType>(body);
        if (!bodyStruct)
            fatal("named type %%%s must be a structure", name.c_str());
        if (signaturesOnly_) {
            if (bodyStruct != st)
                st->setBody(bodyStruct->fields());
            definedTypes_.insert(name);
        }
    }

    void
    parseGlobal(const std::string &name)
    {
        Linkage linkage =
            acceptWord("internal") ? Linkage::Internal
                                   : Linkage::External;
        bool is_constant;
        if (acceptWord("global"))
            is_constant = false;
        else if (acceptWord("constant"))
            is_constant = true;
        else
            fatal("line %d:%d: expected 'global' or 'constant'",
                  cur().line, cur().col);

        Type *contained = parseType();
        if (signaturesOnly_) {
            m_.createGlobal(contained, name, nullptr, is_constant,
                            linkage);
            skipInitializer();
            return;
        }
        GlobalVariable *gv = m_.getGlobal(name);
        LLVA_ASSERT(gv, "global vanished between passes");
        if (acceptWord("zeroinitializer"))
            gv->setInitializer(nullptr);
        else
            gv->setInitializer(parseConstant(contained));
    }

    /** Pass-1 skip over a self-delimiting initializer. */
    void
    skipInitializer()
    {
        switch (cur().kind) {
          case TokKind::IntLit:
          case TokKind::FPLit:
          case TokKind::StringLit:
          case TokKind::Var:
            take();
            return;
          case TokKind::Word:
            // zeroinitializer / null / true / false / undef
            take();
            return;
          case TokKind::LBrace:
          case TokKind::LBracket: {
            TokKind open = cur().kind;
            TokKind close = open == TokKind::LBrace ? TokKind::RBrace
                                                    : TokKind::RBracket;
            take();
            int depth = 1;
            while (depth > 0) {
                if (cur().kind == TokKind::Eof)
                    fatal("unterminated initializer");
                if (cur().kind == open ||
                    (cur().kind == TokKind::LBrace ||
                     cur().kind == TokKind::LBracket))
                    ++depth;
                else if (cur().kind == close ||
                         cur().kind == TokKind::RBrace ||
                         cur().kind == TokKind::RBracket)
                    --depth;
                take();
            }
            return;
          }
          default:
            fatal("line %d:%d: malformed initializer", cur().line, cur().col);
        }
    }

    /** Parse a constant of known type \p type (initializer payload). */
    Constant *
    parseConstant(Type *type)
    {
        switch (cur().kind) {
          case TokKind::IntLit: {
            Token t = take();
            if (!type->isInteger() && !type->isBool())
                fatal("line %d:%d: integer constant for non-integer type",
                      t.line, t.col);
            return m_.constantInt(type, t.intBits);
          }
          case TokKind::FPLit: {
            Token t = take();
            if (!type->isFloatingPoint())
                fatal("line %d:%d: FP constant for non-FP type", t.line, t.col);
            return m_.constantFP(type, t.fpValue);
          }
          case TokKind::StringLit: {
            Token t = take();
            auto *at = dyn_cast<ArrayType>(type);
            if (!at || !at->element()->isInteger() ||
                at->element()->sizeInBytes(8) != 1)
                fatal("line %d:%d: string constant needs [N x ubyte] type",
                      t.line, t.col);
            auto *ty = m_.types().arrayOf(at->element(), t.text.size());
            if (ty != type)
                fatal("line %d:%d: string length %zu does not match type",
                      t.line, t.col, t.text.size());
            // The token bytes already include any NUL terminator.
            return m_.constantString(t.text, /*nul=*/false);
          }
          case TokKind::Word: {
            if (acceptWord("null")) {
                auto *pt = dyn_cast<PointerType>(type);
                if (!pt)
                    fatal("'null' needs a pointer type");
                return m_.constantNull(
                    const_cast<PointerType *>(pt));
            }
            if (acceptWord("true"))
                return m_.constantBool(true);
            if (acceptWord("false"))
                return m_.constantBool(false);
            if (acceptWord("undef"))
                return m_.constantUndef(type);
            fatal("line %d:%d: unexpected word '%s' in constant",
                  cur().line, cur().col, cur().text.c_str());
          }
          case TokKind::Var: {
            // Reference to a global or function.
            Token t = take();
            if (Function *f = m_.getFunction(t.text))
                return f;
            if (GlobalVariable *g = m_.getGlobal(t.text))
                return g;
            fatal("line %d:%d: unknown global %%%s in constant", t.line, t.col,
                  t.text.c_str());
          }
          case TokKind::LBracket: {
            take();
            auto *at = dyn_cast<ArrayType>(type);
            if (!at)
                fatal("array initializer for non-array type");
            std::vector<Constant *> elems;
            if (!accept(TokKind::RBracket)) {
                while (true) {
                    Type *et = parseType();
                    if (et != at->element())
                        fatal("array element type mismatch");
                    elems.push_back(parseConstant(et));
                    if (!accept(TokKind::Comma))
                        break;
                }
                expect(TokKind::RBracket, "']'");
            }
            if (elems.size() != at->numElements())
                fatal("array initializer has %zu elements, needs %llu",
                      elems.size(),
                      (unsigned long long)at->numElements());
            return m_.constantAggregate(type, std::move(elems));
          }
          case TokKind::LBrace: {
            take();
            auto *st = dyn_cast<StructType>(type);
            if (!st)
                fatal("struct initializer for non-struct type");
            std::vector<Constant *> elems;
            if (!accept(TokKind::RBrace)) {
                while (true) {
                    Type *et = parseType();
                    elems.push_back(parseConstant(et));
                    if (!accept(TokKind::Comma))
                        break;
                }
                expect(TokKind::RBrace, "'}'");
            }
            if (elems.size() != st->numFields())
                fatal("struct initializer field count mismatch");
            for (size_t i = 0; i < elems.size(); ++i)
                if (elems[i]->type() != st->field(i))
                    fatal("struct initializer field %zu type mismatch",
                          i);
            return m_.constantAggregate(type, std::move(elems));
          }
          default:
            fatal("line %d:%d: expected constant", cur().line, cur().col);
        }
    }

    void
    parseDeclare()
    {
        Type *ret = parseType();
        Token name = expect(TokKind::Var, "function name");
        expect(TokKind::LParen, "'('");
        std::vector<Type *> params;
        bool vararg = false;
        if (!accept(TokKind::RParen)) {
            while (true) {
                if (accept(TokKind::Ellipsis)) {
                    vararg = true;
                    break;
                }
                params.push_back(parseType());
                // Optional parameter name.
                if (cur().kind == TokKind::Var)
                    take();
                if (!accept(TokKind::Comma))
                    break;
            }
            expect(TokKind::RParen, "')'");
        }
        if (signaturesOnly_)
            m_.getOrInsertFunction(
                name.text, m_.types().functionOf(ret, params, vararg));
    }

    void
    parseFunctionDef()
    {
        Linkage linkage = acceptWord("internal") ? Linkage::Internal
                                                 : Linkage::External;
        Type *ret = parseType();
        Token name = expect(TokKind::Var, "function name");
        expect(TokKind::LParen, "'('");
        std::vector<Type *> params;
        std::vector<std::string> param_names;
        bool vararg = false;
        if (!accept(TokKind::RParen)) {
            while (true) {
                if (accept(TokKind::Ellipsis)) {
                    vararg = true;
                    break;
                }
                params.push_back(parseType());
                if (cur().kind == TokKind::Var)
                    param_names.push_back(take().text);
                else
                    param_names.push_back("");
                if (!accept(TokKind::Comma))
                    break;
            }
            expect(TokKind::RParen, "')'");
        }
        expect(TokKind::LBrace, "'{'");

        if (signaturesOnly_) {
            Function *f = m_.getOrInsertFunction(
                name.text, m_.types().functionOf(ret, params, vararg));
            f->setLinkage(linkage);
            // Skip the body.
            int depth = 1;
            while (depth > 0) {
                if (cur().kind == TokKind::Eof)
                    fatal("unterminated function body");
                if (cur().kind == TokKind::LBrace)
                    ++depth;
                else if (cur().kind == TokKind::RBrace)
                    --depth;
                take();
            }
            return;
        }

        Function *f = m_.getFunction(name.text);
        LLVA_ASSERT(f, "function vanished between passes");
        if (!f->isDeclaration())
            fatal("line %d:%d: function %%%s defined twice",
                  name.line, name.col, name.text.c_str());
        parseBody(f, param_names);
    }

    // --- Function bodies -----------------------------------------------

    void
    parseBody(Function *f, const std::vector<std::string> &param_names)
    {
        func_ = f;
        locals_.clear();
        blocks_.clear();
        blockOrder_.clear();
        forwards_.clear();
        fwdLoc_.clear();
        blockRefLoc_.clear();

        for (size_t i = 0; i < f->numArgs(); ++i) {
            if (!param_names[i].empty()) {
                f->arg(i)->setName(param_names[i]);
                locals_[param_names[i]] = f->arg(i);
            }
        }

        // Body: label: insts... label: insts... '}'
        while (!accept(TokKind::RBrace)) {
            if (cur().kind == TokKind::Word &&
                m_.types().primByName(cur().text) == nullptr) {
                // Could be a label (word ':') or an opcode.
                Token w = cur();
                if (isLabelAhead()) {
                    take();
                    expect(TokKind::Colon, "':'");
                    BasicBlock *bb = getBlock(w.text);
                    blockOrder_.push_back(bb);
                    definedBlocks_.insert(bb);
                    curBlock_ = bb;
                    continue;
                }
            }
            if (!curBlock_)
                fatal("line %d:%d: instruction before first label",
                      cur().line, cur().col);
            parseInstruction();
        }

        // Reorder blocks to match source order.
        for (BasicBlock *bb : blockOrder_)
            f->moveBlockBefore(bb, nullptr);
        for (const auto &[name, bb] : blocks_)
            if (!definedBlocks_.count(bb)) {
                auto loc = blockRefLoc_[name];
                fatal("line %d:%d: label %%%s referenced but not "
                      "defined in %%%s",
                      loc.first, loc.second, name.c_str(),
                      f->name().c_str());
            }

        // Resolve forward value references.
        for (auto &[name, fwd] : forwards_) {
            auto loc = fwdLoc_[name];
            auto it = locals_.find(name);
            if (it == locals_.end())
                fatal("line %d:%d: value %%%s used but never "
                      "defined in %%%s",
                      loc.first, loc.second, name.c_str(),
                      f->name().c_str());
            if (it->second->type() != fwd->type())
                fatal("line %d:%d: value %%%s used with type %s "
                      "but defined as %s",
                      loc.first, loc.second, name.c_str(),
                      fwd->type()->str().c_str(),
                      it->second->type()->str().c_str());
            fwd->replaceAllUsesWith(it->second);
        }
        for (auto &[name, fwd] : forwards_)
            delete fwd;
        forwards_.clear();
        definedBlocks_.clear();
        curBlock_ = nullptr;
        func_ = nullptr;
    }

    /** Lookahead: is the current Word followed by ':'? */
    bool
    isLabelAhead()
    {
        // The lexer has one-token lookahead only; a label is a Word
        // whose next token is ':'. Probe by copying the lexer state:
        // cheap because Lexer is small and the source is shared.
        Lexer probe = *lex_;
        probe.take();
        return probe.current().kind == TokKind::Colon;
    }

    BasicBlock *
    getBlock(const std::string &name, int line = 0, int col = 0)
    {
        auto it = blocks_.find(name);
        if (it != blocks_.end())
            return it->second;
        BasicBlock *bb = func_->createBlock(name);
        blocks_[name] = bb;
        // Remember where the label was first mentioned so the
        // "referenced but not defined" diagnostic at end of body
        // can point at the reference.
        if (line && !blockRefLoc_.count(name))
            blockRefLoc_[name] = {line, col};
        return bb;
    }

    /** Resolve %name as a local value of expected type \p type. */
    Value *
    lookupValue(const std::string &name, Type *type, int line,
                int col)
    {
        auto it = locals_.find(name);
        if (it != locals_.end()) {
            if (it->second->type() != type)
                fatal("line %d:%d: %%%s has type %s, expected %s", line, col,
                      name.c_str(), it->second->type()->str().c_str(),
                      type->str().c_str());
            return it->second;
        }
        if (Function *f = m_.getFunction(name)) {
            if (f->type() != type)
                fatal("line %d:%d: function %%%s type mismatch", line, col,
                      name.c_str());
            return f;
        }
        if (GlobalVariable *g = m_.getGlobal(name)) {
            if (g->type() != type)
                fatal("line %d:%d: global %%%s type mismatch", line, col,
                      name.c_str());
            return g;
        }
        // Forward reference within the function (phi operands).
        auto fit = forwards_.find(name);
        if (fit != forwards_.end()) {
            if (fit->second->type() != type)
                fatal("line %d:%d: forward ref %%%s type mismatch", line, col,
                      name.c_str());
            return fit->second;
        }
        auto *placeholder = new ConstantUndef(type);
        placeholder->setName(name);
        forwards_[name] = placeholder;
        if (!fwdLoc_.count(name))
            fwdLoc_[name] = {line, col};
        return placeholder;
    }

    /** Parse a value reference whose type \p type is already known. */
    Value *
    parseValueRef(Type *type)
    {
        int line = cur().line;
        int col = cur().col;
        switch (cur().kind) {
          case TokKind::Var: {
            Token t = take();
            return lookupValue(t.text, type, line, col);
          }
          case TokKind::IntLit: {
            Token t = take();
            if (!type->isInteger() && !type->isBool())
                fatal("line %d:%d: integer literal for type %s", line, col,
                      type->str().c_str());
            return m_.constantInt(type, t.intBits);
          }
          case TokKind::FPLit: {
            Token t = take();
            if (!type->isFloatingPoint())
                fatal("line %d:%d: FP literal for type %s", line, col,
                      type->str().c_str());
            return m_.constantFP(type, t.fpValue);
          }
          case TokKind::Word:
            if (acceptWord("null")) {
                auto *pt = dyn_cast<PointerType>(type);
                if (!pt)
                    fatal("line %d:%d: 'null' for non-pointer", line, col);
                return m_.constantNull(const_cast<PointerType *>(pt));
            }
            if (acceptWord("true")) {
                if (!type->isBool())
                    fatal("line %d:%d: 'true' for non-bool", line, col);
                return m_.constantBool(true);
            }
            if (acceptWord("false")) {
                if (!type->isBool())
                    fatal("line %d:%d: 'false' for non-bool", line, col);
                return m_.constantBool(false);
            }
            if (acceptWord("undef"))
                return m_.constantUndef(type);
            fatal("line %d:%d: expected value", line, col);
          default:
            fatal("line %d:%d: expected value", line, col);
        }
    }

    /** Parse `type valueref`. */
    Value *
    parseTypedValue()
    {
        Type *t = parseType();
        return parseValueRef(t);
    }

    BasicBlock *
    parseLabelRef()
    {
        expectWord("label");
        Token t = expect(TokKind::Var, "label name");
        return getBlock(t.text, t.line, t.col);
    }

    void
    define(const std::string &name, Value *v, int line, int col)
    {
        if (name.empty())
            return;
        v->setName(name);
        if (locals_.count(name))
            fatal("line %d:%d: value %%%s redefined (SSA violation)",
                  line, col, name.c_str());
        locals_[name] = v;
    }

    Instruction *
    append(Instruction *inst)
    {
        return curBlock_->append(std::unique_ptr<Instruction>(inst));
    }

    void
    parseInstruction()
    {
        std::string result;
        int rline = 0, rcol = 0;
        if (cur().kind == TokKind::Var) {
            Token r = take();
            result = r.text;
            rline = r.line;
            rcol = r.col;
            expect(TokKind::Equal, "'='");
        }
        Token op = expect(TokKind::Word, "opcode");
        Instruction *inst = parseInstructionBody(op.text, op.line, op.col);
        define(result, inst, rline, rcol);

        // Optional !ee(true/false) attribute.
        if (cur().kind == TokKind::Bang) {
            take();
            expectWord("ee");
            expect(TokKind::LParen, "'('");
            if (acceptWord("true"))
                inst->setExceptionsEnabled(true);
            else if (acceptWord("false"))
                inst->setExceptionsEnabled(false);
            else
                fatal("line %d:%d: expected true/false", cur().line, cur().col);
            expect(TokKind::RParen, "')'");
        }
    }

    Instruction *
    parseInstructionBody(const std::string &op, int line, int col)
    {
        auto &tc = m_.types();

        static const std::map<std::string, Opcode> binaries = {
            {"add", Opcode::Add},   {"sub", Opcode::Sub},
            {"mul", Opcode::Mul},   {"div", Opcode::Div},
            {"rem", Opcode::Rem},   {"and", Opcode::And},
            {"or", Opcode::Or},     {"xor", Opcode::Xor},
            {"shl", Opcode::Shl},   {"shr", Opcode::Shr},
        };
        static const std::map<std::string, Opcode> compares = {
            {"seteq", Opcode::SetEQ}, {"setne", Opcode::SetNE},
            {"setlt", Opcode::SetLT}, {"setgt", Opcode::SetGT},
            {"setle", Opcode::SetLE}, {"setge", Opcode::SetGE},
        };

        if (auto it = binaries.find(op); it != binaries.end()) {
            Type *t = parseType();
            Value *lhs = parseValueRef(t);
            expect(TokKind::Comma, "','");
            Value *rhs;
            if (it->second == Opcode::Shl || it->second == Opcode::Shr)
                rhs = parseTypedValue();
            else
                rhs = parseValueRef(t);
            return append(new BinaryOperator(it->second, lhs, rhs));
        }
        if (auto it = compares.find(op); it != compares.end()) {
            Type *t = parseType();
            Value *lhs = parseValueRef(t);
            expect(TokKind::Comma, "','");
            Value *rhs = parseValueRef(t);
            return append(new SetCondInst(it->second, lhs, rhs));
        }
        if (op == "ret") {
            if (acceptWord("void"))
                return append(new ReturnInst(tc));
            return append(new ReturnInst(tc, parseTypedValue()));
        }
        if (op == "br") {
            if (isWord("label")) {
                BasicBlock *dest = parseLabelRef();
                return append(new BranchInst(tc, dest));
            }
            Value *cond = parseTypedValue();
            expect(TokKind::Comma, "','");
            BasicBlock *t = parseLabelRef();
            expect(TokKind::Comma, "','");
            BasicBlock *f = parseLabelRef();
            return append(new BranchInst(tc, cond, t, f));
        }
        if (op == "mbr") {
            Value *v = parseTypedValue();
            expect(TokKind::Comma, "','");
            BasicBlock *def = parseLabelRef();
            auto *mbr = new MBrInst(tc, v, def);
            append(mbr);
            expect(TokKind::LBracket, "'['");
            if (!accept(TokKind::RBracket)) {
                while (true) {
                    Value *cv = parseTypedValue();
                    auto *ci = dyn_cast<ConstantInt>(cv);
                    if (!ci)
                        fatal("line %d:%d: mbr case must be constant",
                              line, col);
                    expect(TokKind::Comma, "','");
                    BasicBlock *dest = parseLabelRef();
                    mbr->addCase(const_cast<ConstantInt *>(ci), dest);
                    if (!accept(TokKind::Comma))
                        break;
                }
                expect(TokKind::RBracket, "']'");
            }
            return mbr;
        }
        if (op == "invoke") {
            Type *ret = parseType();
            Token callee_tok = expect(TokKind::Var, "callee");
            auto [callee, args] = parseCallSuffix(callee_tok.text, ret,
                                                  line, col);
            expectWord("to");
            BasicBlock *normal = parseLabelRef();
            expectWord("unwind");
            BasicBlock *uw = parseLabelRef();
            return append(
                new InvokeInst(ret, callee, args, normal, uw));
        }
        if (op == "unwind")
            return append(new UnwindInst(tc));
        if (op == "load") {
            Value *ptr = parseTypedValue();
            if (!ptr->type()->isPointer())
                fatal("line %d:%d: load needs a pointer", line, col);
            return append(new LoadInst(ptr));
        }
        if (op == "store") {
            Value *v = parseTypedValue();
            expect(TokKind::Comma, "','");
            Value *ptr = parseTypedValue();
            if (!ptr->type()->isPointer())
                fatal("line %d:%d: store needs a pointer", line, col);
            return append(new StoreInst(v, ptr));
        }
        if (op == "getelementptr") {
            Value *ptr = parseTypedValue();
            std::vector<Value *> indices;
            while (accept(TokKind::Comma))
                indices.push_back(parseTypedValue());
            return append(new GetElementPtrInst(ptr, indices));
        }
        if (op == "alloca") {
            Type *t = parseType();
            Value *size = nullptr;
            if (accept(TokKind::Comma))
                size = parseTypedValue();
            return append(new AllocaInst(t, size));
        }
        if (op == "cast") {
            Value *v = parseTypedValue();
            expectWord("to");
            Type *dest = parseType();
            return append(new CastInst(v, dest));
        }
        if (op == "call") {
            Type *ret = parseType();
            Token callee_tok = expect(TokKind::Var, "callee");
            auto [callee, args] = parseCallSuffix(callee_tok.text, ret,
                                                  line, col);
            return append(new CallInst(ret, callee, args));
        }
        if (op == "phi") {
            Type *t = parseType();
            auto *phi = new PhiNode(t);
            append(phi);
            while (true) {
                expect(TokKind::LBracket, "'['");
                Value *v = parseValueRef(t);
                expect(TokKind::Comma, "','");
                Token b = expect(TokKind::Var, "block name");
                phi->addIncoming(v, getBlock(b.text, b.line, b.col));
                expect(TokKind::RBracket, "']'");
                if (!accept(TokKind::Comma))
                    break;
            }
            return phi;
        }
        fatal("line %d:%d: unknown opcode '%s'", line, col, op.c_str());
    }

    /**
     * Parse `(args...)` and resolve the callee %name. Returns the
     * callee value (function or function-pointer local) and args.
     */
    std::pair<Value *, std::vector<Value *>>
    parseCallSuffix(const std::string &callee_name, Type *ret, int line,
                    int col)
    {
        expect(TokKind::LParen, "'('");
        std::vector<Value *> args;
        if (!accept(TokKind::RParen)) {
            while (true) {
                args.push_back(parseTypedValue());
                if (!accept(TokKind::Comma))
                    break;
            }
            expect(TokKind::RParen, "')'");
        }

        // Locals (function pointers) shadow module-level names.
        Value *callee = nullptr;
        if (auto it = locals_.find(callee_name); it != locals_.end())
            callee = it->second;
        else if (Function *f = m_.getFunction(callee_name))
            callee = f;
        if (!callee)
            fatal("line %d:%d: unknown callee %%%s", line, col,
                  callee_name.c_str());
        auto *pt = dyn_cast<PointerType>(callee->type());
        auto *ft = pt ? dyn_cast<FunctionType>(pt->pointee()) : nullptr;
        if (!ft)
            fatal("line %d:%d: callee %%%s is not a function", line, col,
                  callee_name.c_str());
        if (ft->returnType() != ret)
            fatal("line %d:%d: call return type mismatch for %%%s", line, col,
                  callee_name.c_str());
        return {callee, args};
    }

    const std::string &src_;
    Module &m_;
    Lexer *lex_ = nullptr;
    bool signaturesOnly_ = true;

    // Per-function state.
    Function *func_ = nullptr;
    BasicBlock *curBlock_ = nullptr;
    std::map<std::string, Value *> locals_;
    std::map<std::string, BasicBlock *> blocks_;
    std::vector<BasicBlock *> blockOrder_;
    std::set<BasicBlock *> definedBlocks_;
    std::map<std::string, ConstantUndef *> forwards_;
    /** First-reference source location of each forward value /
     *  forward label, for end-of-body diagnostics. */
    std::map<std::string, std::pair<int, int>> fwdLoc_;
    std::map<std::string, std::pair<int, int>> blockRefLoc_;
    std::set<std::string> definedTypes_;
};

} // namespace

Expected<std::unique_ptr<Module>>
parseAssembly(const std::string &source, const std::string &module_name)
{
    auto m = std::make_unique<Module>(module_name);
    Parser p(source, *m);
    try {
        p.run();
    } catch (const FatalError &e) {
        // Instructions in the half-built module may still hold
        // operand edges to the parser's forward-reference
        // placeholders: release those before the module dies.
        p.freeForwardPlaceholders();
        m.reset();
        return Error(std::string("parse error: ") + e.what());
    }
    return m;
}

} // namespace llva
