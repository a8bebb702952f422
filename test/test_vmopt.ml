(* Register-bank specialization, superinstruction fusion and the closure
   tier: the typing export feeding bank assignment, verifier rejection of
   malformed specialized opcodes, the tier's observability, a three-way
   differential property (checked vs verified vs the closure tier) over
   random programs with int and float loops, branches and exceptions, and
   unit cases for what the tier binds at load (hooks, struct slots, host
   functions) and for its step budget. *)

module Bc = Hilti_vm.Bytecode
module Value = Hilti_vm.Value
module Verify = Hilti_vm.Verify
module H = Hilti_vm.Host_api
module Metrics = Hilti_obs.Metrics

(* ---- Typing export ------------------------------------------------------ *)

let test_typing_export () =
  (* sum = 0; i = 3; while (i > 0) { sum += i; i -= 0 }; return sum —
     the same loop the verifier-acceptance test uses, with hand-computed
     per-register tags. *)
  let f =
    Test_analysis.mk_func ~nregs:5
      [ Bc.Const (0, Value.Int 0L);
        Bc.Const (1, Value.Int 3L);
        Bc.Const (2, Value.Int 0L);
        Bc.Prim (Bc.P_int_cmp Bc.C_gt, [| 1; 2 |], 3);
        Bc.Br (3, 5, 8);
        Bc.Prim (Bc.P_int_arith (Bc.A_add, 64), [| 0; 1 |], 0);
        Bc.Prim (Bc.P_int_arith (Bc.A_sub, 64), [| 1; 2 |], 1);
        Bc.Jump 3;
        Bc.Ret 0 ]
  in
  let p = Test_analysis.mk_prog [ f ] in
  ignore (Verify.verify_exn p);
  let tag = Alcotest.testable (Fmt.of_to_string Bc.tag_name) ( = ) in
  Alcotest.(check (array tag)) "loop register tags"
    [| Bc.Tint; Bc.Tint; Bc.Tint; Bc.Tbool; Bc.Any |]
    f.Bc.typing;
  (* Parameters stay Any (callers choose the value); Mov propagates tags
     through the copy fixpoint; double constants tag Tdouble. *)
  let g =
    Test_analysis.mk_func ~nparams:1 ~nregs:4
      [ Bc.Const (1, Value.Double 2.5); Bc.Mov (2, 1); Bc.Ret 1 ]
  in
  let p = Test_analysis.mk_prog [ g ] in
  ignore (Verify.verify_exn p);
  Alcotest.(check (array tag)) "param/mov/double tags"
    [| Bc.Any; Bc.Tdouble; Bc.Tdouble; Bc.Any |]
    g.Bc.typing

(* ---- Verifier rejects malformed specialized opcodes --------------------- *)

let test_verifier_rejects_malformed_spec () =
  (* Specialized opcode in a function that never went through Specialize:
     no bank metadata, nothing to index into. *)
  Test_analysis.expect_reject "spec opcode without metadata"
    (Test_analysis.mk_prog
       [ Test_analysis.mk_func [ Bc.IConst_u (0, 1L); Bc.Ret (-1) ] ])
    "without bank metadata";
  (* Bank-mismatched slots: int slot past n_int, float slot with an empty
     float bank. *)
  let with_spec ~n_int ~n_float code =
    let f = Test_analysis.mk_func code in
    f.Bc.spec <-
      Some
        {
          Bc.n_int;
          n_float;
          ibank_init = Bytes.make (8 * n_int) '\000';
          fbank_init = Array.make n_float 0.0;
          int_slot = Array.make f.Bc.nregs (-1);
          float_slot = Array.make f.Bc.nregs (-1);
        };
    Test_analysis.mk_prog [ f ]
  in
  Test_analysis.expect_reject "int slot out of bank"
    (with_spec ~n_int:1 ~n_float:0 [ Bc.IConst_u (5, 1L); Bc.Ret (-1) ])
    "int-bank slot 5 out of range";
  Test_analysis.expect_reject "float slot in empty bank"
    (with_spec ~n_int:1 ~n_float:0 [ Bc.FConst_u (0, 1.0); Bc.Ret (-1) ])
    "float-bank slot 0 out of range";
  Test_analysis.expect_reject "fused branch target out of range"
    (with_spec ~n_int:2 ~n_float:0
       [ Bc.IBrCmp_u (Bc.C_lt, 0, 1, 99, 1); Bc.Ret (-1) ])
    "out of range"

(* ---- Specialization smoke: fusion happened, obs counters move ----------- *)

(* acc = 0; i = 0; while (i < n) { x = i*3 xor acc; acc +/-= x by parity;
   i += 1 } — the integer-hot shape the superinstructions target. *)
let hot_module () =
  let m = Module_ir.create "Hot" in
  let b =
    Builder.func m "Hot::spin" ~params:[ ("n", Htype.Int 64) ]
      ~result:(Htype.Int 64)
  in
  let acc = Builder.local b "acc" (Htype.Int 64) in
  let i = Builder.local b "i" (Htype.Int 64) in
  Builder.assign b ~target:acc (Builder.const_int 0);
  Builder.assign b ~target:i (Builder.const_int 0);
  Builder.jump b "head";
  Builder.set_block b "head";
  let c = Builder.emit b Htype.Bool "int.lt" [ Instr.Local i; Instr.Local "n" ] in
  Builder.if_else b c ~then_:"body" ~else_:"exit";
  Builder.set_block b "body";
  let x = Builder.emit b (Htype.Int 64) "int.mul" [ Instr.Local i; Builder.const_int 3 ] in
  let x = Builder.emit b (Htype.Int 64) "int.xor" [ x; Instr.Local acc ] in
  let par = Builder.emit b (Htype.Int 64) "int.and" [ x; Builder.const_int 1 ] in
  let even = Builder.emit b Htype.Bool "int.eq" [ par; Builder.const_int 0 ] in
  Builder.if_else b even ~then_:"even" ~else_:"odd";
  Builder.set_block b "even";
  let e = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; x ] in
  Builder.assign b ~target:acc e;
  Builder.jump b "latch";
  Builder.set_block b "odd";
  let o = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local acc; x ] in
  Builder.assign b ~target:acc o;
  Builder.jump b "latch";
  Builder.set_block b "latch";
  let i' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local i; Builder.const_int 1 ] in
  Builder.assign b ~target:i i';
  Builder.jump b "head";
  Builder.set_block b "exit";
  Builder.return_result b (Instr.Local acc);
  m

let test_specialization_smoke () =
  let api = H.compile [ hot_module () ] in
  let prog = api.H.ctx.Hilti_vm.Vm.program in
  Alcotest.(check bool) "program marked specialized" true prog.Bc.specialized;
  let f = prog.Bc.funcs.(Option.get (Bc.find_func prog "Hot::spin")) in
  Alcotest.(check bool) "bank metadata attached" true (f.Bc.spec <> None);
  let has pred = Array.exists pred f.Bc.code in
  Alcotest.(check bool) "compare+branch fused" true
    (has (function Bc.IBrCmp_u _ | Bc.IBrCmpK_u _ -> true | _ -> false));
  Alcotest.(check bool) "increment+backedge fused" true
    (has (function Bc.IIncrJ_u _ -> true | _ -> false));
  let specialized = Value.as_int (H.call api "Hot::spin" [ Value.Int 500L ]) in
  let api_v = H.compile ~specialize:false [ hot_module () ] in
  let verified = Value.as_int (H.call api_v "Hot::spin" [ Value.Int 500L ]) in
  Alcotest.(check int64) "same result as verified dispatch" verified specialized;
  (* Bridge instructions (box/unbox at bank boundaries) are visible to the
     obs layer: the hot loop re-unboxes the boxed parameter every
     iteration, so the transfer counter must move. *)
  Metrics.with_enabled true (fun () ->
      let before = Metrics.counter_value Hilti_vm.Vm.m_regbank_transfers in
      ignore (H.call api "Hot::spin" [ Value.Int 100L ]);
      let after = Metrics.counter_value Hilti_vm.Vm.m_regbank_transfers in
      Alcotest.(check bool) "vm_regbank_transfers advanced" true (after > before))

(* ---- Three-way differential property ------------------------------------ *)

(* Random programs mixing an integer expression loop (with possibly-raising
   div/mod), a float accumulator (with possibly-raising double.div), an
   integer-parity diamond and a float-threshold branch.  Checked, verified
   and specialized dispatch must agree on the result, the escaping
   exception, and the number of runtime safety checks that fired. *)
let prop_differential_three_way =
  let module G = QCheck.Gen in
  let rec expr_gen depth =
    if depth = 0 then
      G.oneof [ G.return `X; G.return `I; G.map (fun i -> `C i) (G.int_range (-10) 10) ]
    else
      G.oneof
        [ G.return `X;
          G.return `I;
          G.map (fun i -> `C i) (G.int_range (-10) 10);
          G.map3 (fun op l r -> `Bin (op, l, r))
            (G.oneofl [ "add"; "sub"; "mul"; "and"; "xor"; "min"; "div"; "mod" ])
            (expr_gen (depth - 1)) (expr_gen (depth - 1)) ]
  in
  let rec build b = function
    | `X -> Instr.Local "x"
    | `I -> Instr.Local "i"
    | `C i -> Builder.const_int i
    | `Bin (op, l, r) ->
        let lo = build b l in
        let ro = build b r in
        Builder.emit b (Htype.Int 64) ("int." ^ op) [ lo; ro ]
  in
  let const_double f = Instr.Const (Constant.Double f) in
  let mk (body, fop, fc, bound, thenc, elsec) =
    let m = Module_ir.create "R" in
    let b = Builder.func m "R::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
    let acc = Builder.local b "acc" (Htype.Int 64) in
    let i = Builder.local b "i" (Htype.Int 64) in
    let facc = Builder.local b "facc" Htype.Double in
    Builder.assign b ~target:acc (Builder.const_int 0);
    Builder.assign b ~target:i (Builder.const_int bound);
    Builder.assign b ~target:facc (const_double 0.5);
    Builder.jump b "head";
    Builder.set_block b "head";
    let c = Builder.emit b Htype.Bool "int.gt" [ Instr.Local i; Builder.const_int 0 ] in
    Builder.if_else b c ~then_:"body" ~else_:"exit";
    Builder.set_block b "body";
    let v = build b body in
    let acc' = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; v ] in
    Builder.assign b ~target:acc acc';
    (* float accumulator: fop may be double.div with fc = 0.0 — the raise
       must escape identically under all three dispatch loops *)
    let f' = Builder.emit b Htype.Double ("double." ^ fop) [ Instr.Local facc; const_double fc ] in
    Builder.assign b ~target:facc f';
    (* integer-parity diamond *)
    let par = Builder.emit b (Htype.Int 64) "int.and" [ Instr.Local acc; Builder.const_int 1 ] in
    let even = Builder.emit b Htype.Bool "int.eq" [ par; Builder.const_int 0 ] in
    Builder.if_else b even ~then_:"even" ~else_:"odd";
    Builder.set_block b "even";
    let e = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; Builder.const_int thenc ] in
    Builder.assign b ~target:acc e;
    Builder.jump b "fbr";
    Builder.set_block b "odd";
    let o = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local acc; Builder.const_int elsec ] in
    Builder.assign b ~target:acc o;
    Builder.jump b "fbr";
    (* float-threshold branch *)
    Builder.set_block b "fbr";
    let fc2 = Builder.emit b Htype.Bool "double.lt" [ Instr.Local facc; const_double 50.0 ] in
    Builder.if_else b fc2 ~then_:"fbump" ~else_:"latch";
    Builder.set_block b "fbump";
    let fb = Builder.emit b Htype.Double "double.add" [ Instr.Local facc; const_double 1.0 ] in
    Builder.assign b ~target:facc fb;
    Builder.jump b "latch";
    Builder.set_block b "latch";
    let i' = Builder.emit b (Htype.Int 64) "int.sub" [ Instr.Local i; Builder.const_int 1 ] in
    Builder.assign b ~target:i i';
    Builder.jump b "head";
    Builder.set_block b "exit";
    let fi = Builder.emit b (Htype.Int 64) "double.to_int" [ Instr.Local facc ] in
    let r = Builder.emit b (Htype.Int 64) "int.add" [ Instr.Local acc; fi ] in
    Builder.return_result b r;
    m
  in
  let case_gen =
    let module G = QCheck.Gen in
    G.map3
      (fun body (fop, fc) (bound, thenc, elsec) -> (body, fop, fc, bound, thenc, elsec))
      (expr_gen 3)
      (G.pair (G.oneofl [ "add"; "sub"; "mul"; "div" ])
         (G.oneofl [ 0.0; 0.5; 1.5; 2.0; -1.0 ]))
      (G.triple (G.int_range 0 6) (G.int_range (-5) 5) (G.int_range (-5) 5))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"checked = verified = specialized (result, exception, dynamic hits)"
       ~count:60
       (QCheck.make (QCheck.Gen.pair case_gen (QCheck.Gen.int_range (-20) 20)))
       (fun (case, x) ->
         let run compile =
           let api = compile (mk case) in
           Metrics.with_enabled true (fun () ->
               let before = Metrics.counter_value Value.m_dynamic_hit in
               let c0 = H.cycles api in
               let outcome =
                 match H.call api "R::f" [ Value.Int (Int64.of_int x) ] with
                 | v -> Ok (Value.as_int v)
                 | exception Value.Hilti_error e -> Error e.Value.ename
               in
               let hits = Metrics.counter_value Value.m_dynamic_hit - before in
               (* Every loop retires the same bytecode instructions. *)
               (outcome, hits, Int64.sub (H.cycles api) c0))
         in
         let checked = run (fun m -> H.compile ~verify:false [ m ]) in
         let verified = run (fun m -> H.compile ~specialize:false [ m ]) in
         let checked_spec =
           run (fun m ->
               let api = H.compile [ m ] in
               H.use_checked_loop api;
               api)
         in
         let specialized = run (fun m -> H.compile [ m ]) in
         (* Fusion and bank bridges change the instruction count, so
            retired instructions are compared between loops running the
            same code: checked = verified on the plain code, the checked
            oracle = the closure tier on the specialized code. *)
         let same_outcome (o1, h1, _) (o2, h2, _) = o1 = o2 && h1 = h2 in
         checked = verified && checked_spec = specialized
         && same_outcome checked specialized))

(* ---- The closure tier's load-time bindings ------------------------------ *)

(* The ways a program can run, each tagged with the bytecode it executes:
   the checked oracle and the verified loop run the unspecialized code;
   the oracle also runs the specialized code ([use_checked_loop]), which
   is what the closure tier runs.  Loops on the same code must retire the
   same instructions; all must agree on outcomes. *)
let modes =
  [ ("checked", `Plain, fun m -> H.compile ~verify:false [ m ]);
    ("verified", `Plain, fun m -> H.compile ~specialize:false [ m ]);
    ( "checked-spec",
      `Spec,
      fun m ->
        let api = H.compile [ m ] in
        H.use_checked_loop api;
        api );
    ("tier", `Spec, fun m -> H.compile [ m ]) ]

(* Run [entry] once per mode; each result carries the outcome, the output
   printed, and the instructions retired. *)
let run_modes src entry args =
  List.map
    (fun (mode, code, compile) ->
      let api = compile (Hilti_lang.Parser.parse_module src) in
      let out = Buffer.create 16 in
      H.set_output api (fun s -> Buffer.add_string out (s ^ ";"));
      let c0 = H.cycles api in
      let outcome =
        match H.call api entry args with
        | v -> Value.to_string v
        | exception Value.Hilti_error e -> "raised " ^ e.Value.ename
      in
      (mode, code, (outcome, Buffer.contents out, Int64.sub (H.cycles api) c0)))
    modes

(* Outcomes agree across all modes, instruction counts across the modes
   running the same code. *)
let check_modes what expected results =
  let oracle_of code =
    let _, _, r = List.find (fun (_, c, _) -> c = code) results in
    r
  in
  List.iter
    (fun (mode, code, (o, out, c)) ->
      let o', out', c' = oracle_of code in
      Alcotest.(check string) (Printf.sprintf "%s: %s outcome" what mode) (o' ^ " | " ^ out')
        (o ^ " | " ^ out);
      Alcotest.(check int64) (Printf.sprintf "%s: %s instructions" what mode) c' c)
    results;
  let o, out, _ = oracle_of `Plain in
  Alcotest.(check string) (what ^ ": expected") expected (o ^ " | " ^ out)

let test_tier_hooks () =
  (* [M::none] has no bodies: the tier bound it to nothing at load, and it
     must still retire exactly one instruction.  [M::h] has three bodies,
     run by descending priority; the middle one stops the hook. *)
  let src =
    {|
module M

hook void h (int<64> x) {
    call Hilti::print ("low")
}

hook 5 void h (int<64> x) {
    call Hilti::print (x)
}

hook 3 void h (int<64> x) {
    call Hilti::print ("stop")
    hook.stop
}

hook 1 void g (int<64> x) {
    call Hilti::print ("g1")
}

hook 2 void g (int<64> x) {
    call Hilti::print ("g2")
}

int<64> f () {
    hook.run M::none (1)
    hook.run M::h (7)
    hook.run M::none (2)
    hook.run M::g (8)
    return 42
}
|}
  in
  check_modes "hooks" "42 | 7;stop;g2;g1;" (run_modes src "M::f" []);
  let empty =
    {|
module M

int<64> f () {
    hook.run M::none (1)
    return 1
}
|}
  in
  let results = run_modes empty "M::f" [] in
  check_modes "empty hook" "1 | " results;
  List.iter
    (fun (mode, _, (_, _, c)) ->
      Alcotest.(check int64) (mode ^ ": empty hook.run retires one instruction") 2L c)
    results

let struct_src =
  {|
module M

type R = struct {
    int<64> b,
    int<64> a
}

int<64> get_a (ref<R> r) {
    local int<64> v
    v = struct.get r a
    return v
}

ref<R> make () {
    local ref<R> r
    r = new R
    struct.set r a 1
    struct.set r b 2
    return r
}
|}

let test_tier_struct_slot_miss () =
  (* The VM builds [R] in declaration order (b, a); the Bro glue builds
     structs in sorted field order (a, b).  The tier's slot cache learns
     index 1 from the first, misses on the second, and must fall back to
     the scan each time the layout flips — and fail like the scan when the
     field is absent. *)
  let module Bv = Mini_bro.Bro_val in
  let host_struct fields = Bv.to_hilti_raw (Bv.new_record "M::R" fields) in
  List.iter
    (fun (mode, _, compile) ->
      let api = compile (Hilti_lang.Parser.parse_module struct_src) in
      let get r =
        match H.call api "M::get_a" [ r ] with
        | v -> Value.to_string v
        | exception Value.Hilti_error e -> "raised " ^ e.Value.ename
      in
      let vm_built = H.call api "M::make" [] in
      let sorted = host_struct [ ("b", Bv.Vcount 20L); ("a", Bv.Vcount 10L) ] in
      let missing = host_struct [ ("b", Bv.Vcount 30L) ] in
      Alcotest.(check (list string))
        (mode ^ ": reads across layouts")
        [ "1"; "10"; "1"; "10"; "raised Hilti::UnsetField"; "1" ]
        (List.map get [ vm_built; sorted; vm_built; sorted; missing; vm_built ]))
    modes

let test_tier_host_rebinding () =
  (* Host functions are bound through per-context slots filled by
     [register]: registering after compile and re-registering later must
     both take effect, and an unregistered call must still fail. *)
  let mk () =
    let m = Module_ir.create "T" in
    Module_ir.add_func m
      { Module_ir.fname = "Host::f"; params = [ ("x", Htype.Int 64) ];
        result = Htype.Int 64; locals = []; blocks = []; cc = Module_ir.Cc_c;
        hook_priority = 0; exported = true };
    let b = Builder.func m "T::f" ~params:[ ("x", Htype.Int 64) ] ~result:(Htype.Int 64) in
    let v =
      Builder.emit b (Htype.Int 64) "call"
        [ Instr.Fname "Host::f"; Instr.Tuple_op [ Instr.Local "x" ] ]
    in
    Builder.return_result b v;
    m
  in
  List.iter
    (fun (mode, _, compile) ->
      let api = compile (mk ()) in
      let call () =
        match H.call api "T::f" [ Value.Int 7L ] with
        | v -> Value.to_string v
        | exception Hilti_vm.Vm.Runtime_error _ -> "unresolved"
      in
      let before = call () in
      H.register api "Host::f" (fun args ->
          match args with [ Value.Int x ] -> Value.Int (Int64.mul 3L x) | _ -> Value.Null);
      let first = call () in
      H.register api "Host::f" (fun args ->
          match args with [ Value.Int x ] -> Value.Int (Int64.add 100L x) | _ -> Value.Null);
      let second = call () in
      Alcotest.(check (list string))
        (mode ^ ": registration order")
        [ "unresolved"; "21"; "107" ]
        [ before; first; second ])
    modes

let test_tier_step_budget () =
  (* A step budget trips at the same instruction in every loop: the
     output printed before the kill and the instructions retired agree
     for every budget along a loop with calls. *)
  let src =
    {|
module M

void tick (int<64> i) {
    call Hilti::print (i)
}

void count (int<64> n) {
    local int<64> i
    local bool more
    i = assign 0
    jump head
head:
    more = int.lt i n
    if.else more body done
body:
    call M::tick (i)
    i = int.add i 1
    jump head
done:
    return
}
|}
  in
  for budget = 1 to 40 do
    let results =
      List.map
        (fun (mode, code, compile) ->
          let api = compile (Hilti_lang.Parser.parse_module src) in
          let out = Buffer.create 16 in
          H.set_output api (fun s -> Buffer.add_string out (s ^ ";"));
          let c0 = H.cycles api in
          H.set_step_budget api budget;
          let killed =
            match H.call api "M::count" [ Value.Int 5L ] with
            | _ -> false
            | exception Hilti_vm.Vm.Step_budget_exceeded -> true
          in
          H.clear_step_budget api;
          (mode, code, (killed, Buffer.contents out, Int64.sub (H.cycles api) c0)))
        modes
    in
    (* Same code, same kill point: the output printed before it and the
       instructions retired agree exactly. *)
    List.iter
      (fun (mode, code, r) ->
        let _, _, oracle = List.find (fun (_, c, _) -> c = code) results in
        let show (k, out, c) = Printf.sprintf "%b %s %Ld" k out c in
        Alcotest.(check string)
          (Printf.sprintf "budget %d: %s" budget mode)
          (show oracle) (show r))
      results
  done

let suite =
  [ Alcotest.test_case "typing export" `Quick test_typing_export;
    Alcotest.test_case "verifier rejects malformed specialized opcodes" `Quick
      test_verifier_rejects_malformed_spec;
    Alcotest.test_case "specialization smoke: fusion + obs" `Quick
      test_specialization_smoke;
    prop_differential_three_way;
    Alcotest.test_case "closure tier: empty, ordered and stopped hooks" `Quick
      test_tier_hooks;
    Alcotest.test_case "closure tier: struct-slot cache miss on host structs" `Quick
      test_tier_struct_slot_miss;
    Alcotest.test_case "closure tier: host function registered late, re-registered"
      `Quick test_tier_host_rebinding;
    Alcotest.test_case "closure tier: step budget trips at the same instruction"
      `Quick test_tier_step_budget ]
