open Nativesim

module Env = Map.Make (String)

let heap_words = 40_000

let fp = 7
let sp = Insn.sp

type binding = Local of int  (** slot index, at [fp - 8*(slot+1)] *) | Param of int | Global of string

type ctx = {
  globals : binding Env.t;
  nparams : int;
  labels : int ref;  (** shared by every function of one program *)
  mutable next_slot : int;
  mutable items : Asm.item list;  (** reversed *)
}

let emit ctx item = ctx.items <- item :: ctx.items

let emit_all ctx items = List.iter (emit ctx) items

(* labels must be unique across the whole text section, not per function;
   numbering them per program keeps a program's bytes independent of what
   the process compiled before *)
let fresh ctx prefix =
  let n = !(ctx.labels) in
  incr ctx.labels;
  Printf.sprintf "c_%s_%d" prefix n

let alloc_slot ctx =
  let s = ctx.next_slot in
  ctx.next_slot <- s + 1;
  s

let global_label name = "g_" ^ name
let func_label name = "fn_" ^ name

let lookup env ctx name =
  match Env.find_opt name env with
  | Some b -> b
  | None -> begin
      match Env.find_opt name ctx.globals with
      | Some b -> b
      | None -> invalid_arg ("To_native: unbound " ^ name)
    end

(* address of a binding, as load/store through fp or a data label *)
let load_binding ctx env name reg =
  match lookup env ctx name with
  | Local slot -> emit ctx (Asm.I (Insn.Load (reg, fp, -8 * (slot + 1))))
  | Param j -> emit ctx (Asm.I (Insn.Load (reg, fp, 16 + (8 * (ctx.nparams - 1 - j)))))
  | Global name -> emit ctx (Asm.Load_lbl (reg, Asm.Lbl (global_label name)))

let store_binding ctx env name reg =
  match lookup env ctx name with
  | Local slot -> emit ctx (Asm.I (Insn.Store (fp, -8 * (slot + 1), reg)))
  | Param j -> emit ctx (Asm.I (Insn.Store (fp, 16 + (8 * (ctx.nparams - 1 - j)), reg)))
  | Global name -> emit ctx (Asm.Store_lbl (Asm.Lbl (global_label name), reg))

(* r0 = array header, r1 = index; trap unless 0 <= r1 < length; leaves the
   element address in r0 *)
let emit_bounds_check_and_addr ctx =
  let ok = fresh ctx "bounds_ok" in
  emit_all ctx
    Asm.[
      I (Insn.Load (2, 0, 0)) (* length *);
      I (Insn.Cmp (1, 2));
      Jcc (Insn.Ge, Lbl "c_trap");
      I (Insn.Cmp_imm (1, 0));
      Jcc (Insn.Lt, Lbl "c_trap");
      L ok;
      I (Insn.Mov (2, 1));
      I (Insn.Alu_imm (Insn.Shl, 2, 3));
      I (Insn.Alu (Insn.Add, 0, 2));
    ]

let rec gen_expr ctx env (e : Ast.expr) =
  match e with
  | Ast.Num v ->
      emit ctx (Asm.I (Insn.Mov_imm (0, v)));
      emit ctx (Asm.I (Insn.Push 0))
  | Ast.Var name ->
      load_binding ctx env name 0;
      emit ctx (Asm.I (Insn.Push 0))
  | Ast.Index (a, i) ->
      gen_expr ctx env a;
      gen_expr ctx env i;
      emit ctx (Asm.I (Insn.Pop 1));
      emit ctx (Asm.I (Insn.Pop 0));
      emit_bounds_check_and_addr ctx;
      emit ctx (Asm.I (Insn.Load (0, 0, 8)));
      emit ctx (Asm.I (Insn.Push 0))
  | Ast.Unary (Ast.Neg, e) ->
      gen_expr ctx env e;
      emit_all ctx Asm.[ I (Insn.Pop 0); I (Insn.Mov_imm (1, 0)); I (Insn.Alu (Insn.Sub, 1, 0)); I (Insn.Push 1) ]
  | Ast.Unary (Ast.Not, e) ->
      gen_expr ctx env e;
      let t = fresh ctx "not_t" and fin = fresh ctx "not_e" in
      emit_all ctx
        Asm.[
          I (Insn.Pop 0);
          I (Insn.Cmp_imm (0, 0));
          Jcc (Insn.Eq, Lbl t);
          I (Insn.Mov_imm (0, 0));
          Jmp (Lbl fin);
          L t;
          I (Insn.Mov_imm (0, 1));
          L fin;
          I (Insn.Push 0);
        ]
  | Ast.Unary (Ast.BNot, e) ->
      gen_expr ctx env e;
      emit_all ctx Asm.[ I (Insn.Pop 0); I (Insn.Mov_imm (1, -1)); I (Insn.Alu (Insn.Xor, 0, 1)); I (Insn.Push 0) ]
  | Ast.Bin (Ast.Land, a, b) ->
      let rhs = fresh ctx "and_rhs" and fin = fresh ctx "and_end" in
      gen_expr ctx env a;
      emit_all ctx
        Asm.[ I (Insn.Pop 0); I (Insn.Cmp_imm (0, 0)); Jcc (Insn.Ne, Lbl rhs); I (Insn.Mov_imm (0, 0)); I (Insn.Push 0); Jmp (Lbl fin); L rhs ];
      gen_expr ctx env b;
      let t = fresh ctx "and_t" in
      emit_all ctx
        Asm.[
          I (Insn.Pop 0);
          I (Insn.Cmp_imm (0, 0));
          Jcc (Insn.Ne, Lbl t);
          I (Insn.Mov_imm (0, 0));
          I (Insn.Push 0);
          Jmp (Lbl fin);
          L t;
          I (Insn.Mov_imm (0, 1));
          I (Insn.Push 0);
          L fin;
        ]
  | Ast.Bin (Ast.Lor, a, b) ->
      let rhs = fresh ctx "or_rhs" and fin = fresh ctx "or_end" in
      gen_expr ctx env a;
      emit_all ctx
        Asm.[ I (Insn.Pop 0); I (Insn.Cmp_imm (0, 0)); Jcc (Insn.Eq, Lbl rhs); I (Insn.Mov_imm (0, 1)); I (Insn.Push 0); Jmp (Lbl fin); L rhs ];
      gen_expr ctx env b;
      let t = fresh ctx "or_t" in
      emit_all ctx
        Asm.[
          I (Insn.Pop 0);
          I (Insn.Cmp_imm (0, 0));
          Jcc (Insn.Ne, Lbl t);
          I (Insn.Mov_imm (0, 0));
          I (Insn.Push 0);
          Jmp (Lbl fin);
          L t;
          I (Insn.Mov_imm (0, 1));
          I (Insn.Push 0);
          L fin;
        ]
  | Ast.Bin (op, a, b) -> begin
      gen_expr ctx env a;
      gen_expr ctx env b;
      emit ctx (Asm.I (Insn.Pop 1));
      emit ctx (Asm.I (Insn.Pop 0));
      let alu kind =
        emit ctx (Asm.I (Insn.Alu (kind, 0, 1)));
        emit ctx (Asm.I (Insn.Push 0))
      in
      let cmp cc =
        let t = fresh ctx "cmp_t" and fin = fresh ctx "cmp_e" in
        emit_all ctx
          Asm.[
            I (Insn.Cmp (0, 1));
            Jcc (cc, Lbl t);
            I (Insn.Mov_imm (0, 0));
            Jmp (Lbl fin);
            L t;
            I (Insn.Mov_imm (0, 1));
            L fin;
            I (Insn.Push 0);
          ]
      in
      match op with
      | Ast.Add -> alu Insn.Add
      | Ast.Sub -> alu Insn.Sub
      | Ast.Mul -> alu Insn.Mul
      | Ast.Div -> alu Insn.Div
      | Ast.Rem -> alu Insn.Rem
      | Ast.Band -> alu Insn.And
      | Ast.Bor -> alu Insn.Or
      | Ast.Bxor -> alu Insn.Xor
      | Ast.Shl -> alu Insn.Shl
      | Ast.Shr -> alu Insn.Sar
      | Ast.Eq -> cmp Insn.Eq
      | Ast.Ne -> cmp Insn.Ne
      | Ast.Lt -> cmp Insn.Lt
      | Ast.Le -> cmp Insn.Le
      | Ast.Gt -> cmp Insn.Gt
      | Ast.Ge -> cmp Insn.Ge
      | Ast.Land | Ast.Lor -> assert false
    end
  | Ast.Call (name, args) ->
      List.iter (gen_expr ctx env) args;
      emit ctx (Asm.Call (Asm.Lbl (func_label name)));
      if args <> [] then emit ctx (Asm.I (Insn.Alu_imm (Insn.Add, sp, 8 * List.length args)));
      emit ctx (Asm.I (Insn.Push 0))
  | Ast.Read ->
      emit ctx (Asm.I (Insn.In 0));
      emit ctx (Asm.I (Insn.Push 0))
  | Ast.New n ->
      gen_expr ctx env n;
      emit_all ctx
        Asm.[
          I (Insn.Pop 0) (* length *);
          I (Insn.Cmp_imm (0, 0));
          Jcc (Insn.Lt, Lbl "c_trap");
          Load_lbl (1, Lbl "c_heap_ptr") (* header address *);
          I (Insn.Store (1, 0, 0)) (* header = length *);
          (* bump: new ptr = old + 8 + 8*len, check against heap end *)
          I (Insn.Mov (2, 0));
          I (Insn.Alu_imm (Insn.Shl, 2, 3));
          I (Insn.Alu (Insn.Add, 2, 1));
          I (Insn.Alu_imm (Insn.Add, 2, 8));
          Mov_lbl (3, Lbl "c_heap_end");
          I (Insn.Cmp (2, 3));
          Jcc (Insn.Gt, Lbl "c_trap");
          Store_lbl (Lbl "c_heap_ptr", 2);
          I (Insn.Push 1);
        ]
  | Ast.Len a ->
      gen_expr ctx env a;
      emit_all ctx Asm.[ I (Insn.Pop 0); I (Insn.Load (0, 0, 0)); I (Insn.Push 0) ]

type loop_labels = { break_to : string; continue_to : string }

let rec gen_stmts ctx env loops stmts = ignore (List.fold_left (fun env s -> gen_stmt ctx env loops s) env stmts)

and gen_stmt ctx env loops (stmt : Ast.stmt) =
  match stmt with
  | Ast.Decl (_, name, e) ->
      gen_expr ctx env e;
      let slot = alloc_slot ctx in
      let env = Env.add name (Local slot) env in
      emit ctx (Asm.I (Insn.Pop 0));
      store_binding ctx env name 0;
      env
  | Ast.Assign (name, e) ->
      gen_expr ctx env e;
      emit ctx (Asm.I (Insn.Pop 0));
      store_binding ctx env name 0;
      env
  | Ast.Assign_index (a, i, v) ->
      gen_expr ctx env a;
      gen_expr ctx env i;
      gen_expr ctx env v;
      emit_all ctx Asm.[ I (Insn.Pop 3) (* value *); I (Insn.Pop 1) (* idx *); I (Insn.Pop 0) (* arr *) ];
      emit_bounds_check_and_addr ctx;
      emit ctx (Asm.I (Insn.Store (0, 8, 3)));
      env
  | Ast.If (cond, then_, else_) ->
      let else_l = fresh ctx "else" and fin = fresh ctx "endif" in
      gen_expr ctx env cond;
      emit_all ctx Asm.[ I (Insn.Pop 0); I (Insn.Cmp_imm (0, 0)); Jcc (Insn.Eq, Lbl else_l) ];
      gen_stmts ctx env loops then_;
      emit ctx (Asm.Jmp (Asm.Lbl fin));
      emit ctx (Asm.L else_l);
      gen_stmts ctx env loops else_;
      emit ctx (Asm.L fin);
      env
  | Ast.While (cond, body) ->
      let head = fresh ctx "while" and fin = fresh ctx "endwhile" in
      emit ctx (Asm.L head);
      gen_expr ctx env cond;
      emit_all ctx Asm.[ I (Insn.Pop 0); I (Insn.Cmp_imm (0, 0)); Jcc (Insn.Eq, Lbl fin) ];
      gen_stmts ctx env (Some { break_to = fin; continue_to = head }) body;
      emit ctx (Asm.Jmp (Asm.Lbl head));
      emit ctx (Asm.L fin);
      env
  | Ast.Return e ->
      gen_expr ctx env e;
      emit_all ctx Asm.[ I (Insn.Pop 0); I (Insn.Mov (sp, fp)); I (Insn.Pop fp); I Insn.Ret ];
      env
  | Ast.Print e ->
      gen_expr ctx env e;
      emit_all ctx Asm.[ I (Insn.Pop 0); I (Insn.Out 0) ];
      env
  | Ast.Expr e ->
      gen_expr ctx env e;
      emit ctx (Asm.I (Insn.Pop 0));
      env
  | Ast.Break -> begin
      match loops with
      | Some l ->
          emit ctx (Asm.Jmp (Asm.Lbl l.break_to));
          env
      | None -> invalid_arg "To_native: break outside loop"
    end
  | Ast.Continue -> begin
      match loops with
      | Some l ->
          emit ctx (Asm.Jmp (Asm.Lbl l.continue_to));
          env
      | None -> invalid_arg "To_native: continue outside loop"
    end

let rec count_decls stmts =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      acc
      +
      match s with
      | Ast.Decl _ -> 1
      | Ast.If (_, a, b) -> count_decls a + count_decls b
      | Ast.While (_, b) -> count_decls b
      | _ -> 0)
    0 stmts

let compile (prog : Ast.program) =
  ignore (Typecheck.check prog);
  let globals =
    List.fold_left
      (fun env (g : Ast.global) -> Env.add g.Ast.gname (Global g.Ast.gname) env)
      Env.empty prog.Ast.globals
  in
  let labels = ref 0 in
  let compile_func (f : Ast.func) =
    let nparams = List.length f.Ast.params in
    let ctx = { globals; nparams; labels; next_slot = 0; items = [] } in
    let env =
      List.fold_left
        (fun (env, j) (_, pname) -> (Env.add pname (Param j) env, j + 1))
        (Env.empty, 0) f.Ast.params
      |> fst
    in
    let nlocals = count_decls f.Ast.body in
    emit ctx (Asm.L (func_label f.Ast.name));
    emit_all ctx Asm.[ I (Insn.Push fp); I (Insn.Mov (fp, sp)) ];
    if nlocals > 0 then emit ctx (Asm.I (Insn.Alu_imm (Insn.Sub, sp, 8 * nlocals)));
    gen_stmts ctx env None f.Ast.body;
    (* unreachable net for dangling join labels *)
    emit_all ctx Asm.[ I (Insn.Mov_imm (0, 0)); I (Insn.Mov (sp, fp)); I (Insn.Pop fp); I Insn.Ret ];
    List.rev ctx.items
  in
  (* startup stub: heap init, global array allocation, call main, halt *)
  let startup =
    let ctx = { globals; nparams = 0; labels; next_slot = 0; items = [] } in
    emit_all ctx Asm.[ Mov_lbl (0, Lbl "c_heap_area"); Store_lbl (Lbl "c_heap_ptr", 0) ];
    List.iter
      (fun (g : Ast.global) ->
        match g.Ast.gsize with
        | Some size ->
            gen_expr ctx Env.empty (Ast.New (Ast.Num size));
            emit ctx (Asm.I (Insn.Pop 0));
            emit ctx (Asm.Store_lbl (Asm.Lbl (global_label g.Ast.gname), 0))
        | None -> ())
      prog.Ast.globals;
    emit_all ctx
      Asm.[
        Call (Lbl (func_label "main"));
        I Insn.Halt;
        (* trap stub: force a machine trap via an invalid access *)
        L "c_trap";
        I (Insn.Mov_imm (0, -8));
        I (Insn.Load (0, 0, 0));
        I Insn.Halt;
      ];
    List.rev ctx.items
  in
  let text = startup @ List.concat_map compile_func prog.Ast.funcs in
  let data =
    List.concat_map
      (fun (g : Ast.global) -> Asm.[ Dlabel (global_label g.Ast.gname); Dword 0 ])
      prog.Ast.globals
    @ Asm.[ Dlabel "c_heap_ptr"; Dword 0; Dlabel "c_heap_area"; Dspace heap_words; Dlabel "c_heap_end" ]
  in
  { Asm.text; data }

let compile_source src = compile (Parser.parse src)

let compile_binary src = Asm.assemble (compile_source src)
