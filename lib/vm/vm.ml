(** The HILTI execution engine.

    Executes lowered bytecode with:
    - per-function register frames and an explicit per-frame handler stack
      for exceptions (HILTI propagates exceptions with explicit checks
      after calls, §5 "Runtime Model");
    - fiber integration: the [yield] instruction and all blocking
      operations suspend the enclosing {!Hilti_rt.Fiber}, giving the
      transparent incremental processing of §3.2 — a parser simply blocks
      reading bytes and the host resumes it when more data arrives;
    - virtual threads: each 64-bit thread id owns its own copy of the
      thread-local globals array and its own timer manager; [thread.schedule]
      deep-copies arguments (state isolation, §3.2);
    - an abstract cycle counter charged per executed instruction, standing
      in for PAPI cycle measurements in the evaluation. *)

open Bytecode

exception Runtime_error of string

exception Step_budget_exceeded
(** Raised by the dispatch loops when [step_kill] instructions have been
    retired.  Deliberately a raw OCaml exception, not a HILTI one, so
    generated [try] handlers cannot swallow it — the fuzzer uses it as a
    hang detector on hostile input. *)

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(* ---- Dispatch observability -------------------------------------------------- *)

(* Executed instructions are attributed to coarse opcode groups.  The
   dispatch loop must stay tight, so per-activation tallies go into a
   local array and are flushed into the sharded counters when the function
   returns; with metrics disabled the loop carries no extra work at all. *)

let opgroup_names =
  [| "data"; "control"; "call"; "exception"; "thread"; "global"; "prim"; "misc";
     "ispec"; "fspec"; "fused"; "bridge" |]

let n_opgroups = Array.length opgroup_names

(* Index of the "bridge" group: box/unbox crossings between the unboxed
   register banks and the boxed frame, also surfaced as the dedicated
   [vm_regbank_transfers] counter. *)
let bridge_group = 11

let opgroup_of (i : Bytecode.instr) =
  match i with
  | Const _ | Mov _ -> 0
  | Jump _ | Br _ | Switch _ -> 1
  | Call _ | CallC _ | Ret _ | Bind _ -> 2
  | TryPush _ | TryPop | Throw _ -> 3
  | Yield | HookRun _ | Schedule _ -> 4
  | LoadGlobal _ | StoreGlobal _ -> 5
  | Prim _ -> 6
  | Nop -> 7
  | IConst_u _ | IMov_u _ | IArith_u _ | IArithK_u _ | ICmp_u _ | ICmpK_u _ -> 8
  | FConst_u _ | FMov_u _ | FArith_u _ | FCmp_u _ -> 9
  | IBrCmp_u _ | IBrCmpK_u _ | IIncrJ_u _ | FBrCmp_u _ -> 10
  | UnboxI _ | BoxI _ | UnboxF _ | BoxF _ -> bridge_group

let m_opgroup =
  Array.map
    (fun g ->
      Hilti_obs.Metrics.counter "vm_instructions"
        ~help:"VM instructions retired, by opcode group" ~label:("group", g))
    opgroup_names

let m_func_instrs =
  Hilti_obs.Metrics.histogram "vm_func_instrs"
    ~help:"Instructions retired per function activation"

let m_regbank_transfers =
  Hilti_obs.Metrics.counter "vm_regbank_transfers"
    ~help:"Box/unbox bridge crossings between unboxed register banks and the boxed frame"

(* One recyclable activation frame per function, per context (and contexts
   are per-domain under [Hilti_par], so arena slots are never shared
   between domains).  Only functions carrying the interprocedural
   frame-reuse licence ([Bytecode.program.reuse], stamped by [Summary])
   ever get a slot; the [a_busy] bit is the runtime safety net — any
   activation that finds its slot taken (an edge the analysis did not see)
   silently falls back to the copying path, so a licence hole can cost
   performance but never correctness. *)
type arena_slot = {
  a_regs : Value.t array;
  a_ibank : Bytes.t;      (** empty when the function has no bank layout *)
  a_fbank : float array;
  mutable a_busy : bool;
}

type context = {
  program : Bytecode.program;
  host_slots : host_fn array;
      (* host-function id ([Bytecode.program.hosts]) -> implementation;
         [register_host] fills it, so a [CallC] is one array load.  Shared
         with the domain clones. *)
  scheduler : Hilti_rt.Scheduler.t;
  vthread_globals : (int64, Value.t array) Hashtbl.t;
  mutable current_thread : int64;
  mutable cached_tid : int64;          (* thread whose globals are cached *)
  mutable cached_globals : Value.t array;
  mutable instr_count : int;
  mutable step_kill : int;             (* raise past this instr_count; max_int = off *)
  cycles : int ref;                    (* per-context abstract cycle counter *)
  mutable debug_sink : string -> unit;
  mutable arena : arena_slot option array;
      (* frame arena, indexed by func idx; [[||]] until first licensed
         activation.  Never shared: each domain clone owns its own. *)
  parent : context option;             (* Some root for per-domain clones *)
  mutable force_checked : bool;
      (* run every activation on the checked oracle loop, whatever the
         program's verification and specialization (differential tests
         compare it with the tier on identical bytecode) *)
  tier : tfunc array option Atomic.t;
      (* the closure-compiled tier of a specialized program, built once
         ({!load_tier}) and shared with every domain clone: translations
         hold no context, frame or bank *)
}

and host_fn = context -> Value.t list -> Value.t

(* One translated function: [t_code.(pc)] executes bytecode instruction
   [pc] against an activation and returns the next pc ([-1] after [Ret]). *)
and tfunc = {
  t_idx : int;
  t_func : Bytecode.func;
  t_code : (act -> int) array;
  t_groups : int array;  (** opcode group per pc, for the obs tally *)
}

(* A tier activation: the executing context plus the frame and banks. *)
and act = {
  actx : context;
  aregs : Value.t array;
  aibank : Bytes.t;
  afbank : float array;
  mutable atries : (int * int) list;  (* handler pc, exception register *)
  mutable aresult : Value.t;
}

let main_thread_id = 0L

let unresolved_host name : host_fn =
 fun _ _ -> fail "unresolved host function %s" name

let create program =
  {
    program;
    host_slots = Array.map unresolved_host program.hosts;
    scheduler = Hilti_rt.Scheduler.create ();
    vthread_globals = Hashtbl.create 8;
    current_thread = main_thread_id;
    cached_tid = Int64.min_int;
    cached_globals = [||];
    instr_count = 0;
    step_kill = max_int;
    cycles = Hilti_rt.Profiler.new_counter ();
    debug_sink = (fun s -> print_endline s);
    arena = [||];
    parent = None;
    force_checked = false;
    tier = Atomic.make None;
  }

(* Binds [fn] to every [CallC] of [name]; a later registration replaces
   an earlier one.  A name the program never calls has no slot. *)
let register_host ctx name fn =
  Array.iteri
    (fun id n -> if String.equal n name then ctx.host_slots.(id) <- fn)
    ctx.program.hosts

let instr_count ctx = Int64.of_int ctx.instr_count

(* ---- Per-domain execution contexts (the parallel engine) --------------------- *)

(* A domain clone shares the immutable program, the host-function slots,
   the closure-tier translation and the scheduler, but owns the mutable
   execution state (current thread, globals table/cache, instruction
   counter, frame arena).  [Hilti_par] makes one clone
   per worker domain and registers it in domain-local storage; every VM
   entry point then resolves the context it was handed to the clone of the
   domain it is actually executing on, so jobs, callables and fibers can
   migrate between domains without sharing mutable state. *)

let clone_for_domain ctx =
  if ctx.parent <> None then invalid_arg "Vm.clone_for_domain: already a clone";
  {
    ctx with
    vthread_globals = Hashtbl.create 8;
    current_thread = main_thread_id;
    cached_tid = Int64.min_int;
    cached_globals = [||];
    instr_count = 0;
    step_kill = max_int;
    cycles = Hilti_rt.Profiler.new_counter ();
    arena = [||];
    parent = Some ctx;
  }

let domain_contexts : (context * context) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(** Register [clone] as the executing domain's context for [root]
    (called once per worker domain by the parallel engine). *)
let set_domain_context ~root ~clone =
  let l = Domain.DLS.get domain_contexts in
  l := (root, clone) :: List.filter (fun (r, _) -> r != root) !l

(** Resolve [ctx] (root or any clone of it) to the context owned by the
    executing domain: the registered clone on an engine worker, the root
    everywhere else. *)
let exec_context ctx =
  let root = match ctx.parent with Some r -> r | None -> ctx in
  match !(Domain.DLS.get domain_contexts) with
  | [] -> root
  | l -> (
      match List.find_opt (fun (r, _) -> r == root) l with
      | Some (_, clone) -> clone
      | None -> root)

(** The executing virtual thread's globals array (created on demand). *)
let globals_for ctx tid =
  match Hashtbl.find_opt ctx.vthread_globals tid with
  | Some g -> g
  | None ->
      let g = Array.map Value.deep_copy ctx.program.global_defaults in
      Hashtbl.add ctx.vthread_globals tid g;
      g

let current_globals ctx =
  if Int64.equal ctx.cached_tid ctx.current_thread then ctx.cached_globals
  else begin
    let g = globals_for ctx ctx.current_thread in
    ctx.cached_tid <- ctx.current_thread;
    ctx.cached_globals <- g;
    g
  end

(** The executing virtual thread's timer manager. *)
let current_timer_mgr ctx =
  Hilti_rt.Scheduler.timers_for ctx.scheduler ctx.current_thread

(* ---- Blocking operations ---------------------------------------------------- *)

(** Run [f], suspending the enclosing fiber while it signals that more
    input is needed.  Outside a fiber the suspension cannot happen, so the
    condition surfaces as Hilti::WouldBlock. *)
let suspend () =
  match Hilti_rt.Fiber.yield () with
  | () -> ()
  | exception Effect.Unhandled _ -> raise (Value.would_block ())

let blocking f =
  let rec go () =
    match f () with
    | v -> v
    | exception Hilti_types.Hbytes.Would_block ->
        suspend ();
        go ()
  in
  go ()

(* Blocking bytes reads shared by [exec_prim] and the closure tier: the
   retry loop is written out, so a read allocates no [blocking] closure
   and no intermediate pair, and extracted data becomes a frozen object
   without a copy. *)
let rec bytes_read (it : Hilti_types.Hbytes.iter) n =
  let open Hilti_types in
  match Hbytes.require it n with
  | () ->
      let it' = Hbytes.advance it n in
      Value.Tuple
        [| Value.Bytes (Hbytes.frozen_of_string (Hbytes.sub it it'));
           Value.Iter (Value.Ibytes it') |]
  | exception Hbytes.Would_block ->
      suspend ();
      bytes_read it n

let rec bytes_unpack ~signed (it : Hilti_types.Hbytes.iter) ~width ~order =
  let open Hilti_types in
  match
    if signed then Hbytes.sint_at it ~width ~order else Hbytes.uint_at it ~width ~order
  with
  | v -> Value.Tuple [| Value.Int v; Value.Iter (Value.Ibytes (Hbytes.advance it width)) |]
  | exception Hbytes.Would_block ->
      suspend ();
      bytes_unpack ~signed it ~width ~order

(* ---- Int semantics ------------------------------------------------------------ *)

let wrap width v =
  if width >= 64 then v
  else
    (* Sign-extended wrap-around at the declared width. *)
    let shift = 64 - width in
    Int64.shift_right (Int64.shift_left v shift) shift

let int_arith op width a b =
  let r =
    match op with
    | A_add -> Int64.add a b
    | A_sub -> Int64.sub a b
    | A_mul -> Int64.mul a b
    | A_div -> if b = 0L then raise (Value.division_by_zero ()) else Int64.div a b
    | A_mod -> if b = 0L then raise (Value.division_by_zero ()) else Int64.rem a b
    | A_shl -> Int64.shift_left a (Int64.to_int b land 63)
    | A_shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
    | A_and -> Int64.logand a b
    | A_or -> Int64.logor a b
    | A_xor -> Int64.logxor a b
    | A_min -> if Int64.compare a b <= 0 then a else b
    | A_max -> if Int64.compare a b >= 0 then a else b
  in
  wrap width r

let compare_by op c =
  match op with
  | C_eq -> c = 0
  | C_lt -> c < 0
  | C_gt -> c > 0
  | C_leq -> c <= 0
  | C_geq -> c >= 0

(* ---- Frames --------------------------------------------------------------------- *)

type frame = {
  regs : Value.t array;
  mutable pc : int;
  mutable tries : (int * int) list;  (* handler pc, exception register *)
}

(* Debug mode for the frame arena: on acquire, every register the frame
   contract does not initialize ([entry_init] false — lowering
   temporaries the verifier proved defined-before-used) is filled with a
   physically-unique sentinel instead of its bank-template default.  The
   checked interpreter then turns any read of a stale slot into a hard
   failure, making "reuse never observes a leftover value" an executable
   assertion rather than an argument. *)
let arena_debug = ref false

let arena_poison : Value.t = Value.String "\xffhilti-arena-poison\xff"

let reg frame i =
  let v = frame.regs.(i) in
  if !arena_debug && v == arena_poison then
    fail "frame arena: read of stale register r%d in a reused frame" i;
  v

let setreg frame i v = if i >= 0 then frame.regs.(i) <- v

(* Unchecked variants for the verified dispatch loop: {!Verify} proved
   every register field of every instruction to be inside the frame, so
   the bounds checks are statically discharged.  [-1] remains the
   "discard" destination. *)
let ureg frame i = Array.unsafe_get frame.regs i

let usetreg frame i v = if i >= 0 then Array.unsafe_set frame.regs i v

(* ---- The frame arena ------------------------------------------------------------ *)

let m_frames_reused =
  Hilti_obs.Metrics.counter "frames_reused"
    ~help:
      "Activations served from the per-worker frame arena instead of copying bank templates"

let m_frame_suspend_copies =
  Hilti_obs.Metrics.counter "vm_frame_suspend_copies"
    ~help:
      "Activations of may-suspend functions that copied bank templates because their arena slot was parked busy by a suspended activation"

let poison_uninit (f : Bytecode.func) (regs : Value.t array) =
  if !arena_debug then
    Array.iteri
      (fun i init -> if not init then regs.(i) <- arena_poison)
      f.entry_init

(* A cached slot is only reusable while its shapes still match the
   function: {!Specialize} may rewrite [reg_defaults] and attach banks
   after a slot was first created. *)
let slot_fits (f : Bytecode.func) (s : arena_slot) =
  Array.length s.a_regs = Array.length f.reg_defaults
  && (match f.spec with
     | Some sp ->
         Bytes.length s.a_ibank = Bytes.length sp.ibank_init
         && Array.length s.a_fbank = Array.length sp.fbank_init
     | None -> true)

(** Hand out the per-context arena frame for function [fidx], or [None]
    when the activation must copy: no licence
    ({!Bytecode.program.reuse} / [reuse_susp]), or the slot is busy (a
    nested or parked activation — correctness is preserved by falling
    back).  For the suspend-tolerant class the busy fallback is the
    expected steady-state cost of overlapping parked fibers, so it is
    metered separately as [vm_frame_suspend_copies].  On reuse the bank
    templates are blitted over the slot in place, so the activation
    starts from exactly the state a fresh copy would have. *)
let acquire_frame ctx (fidx : int) (f : Bytecode.func) : arena_slot option =
  let lic = ctx.program.reuse in
  let lic_s = ctx.program.reuse_susp in
  let strict = fidx < Array.length lic && Array.unsafe_get lic fidx in
  let susp = fidx < Array.length lic_s && Array.unsafe_get lic_s fidx in
  if not (strict || susp) then None
  else begin
    if Array.length ctx.arena = 0 then
      ctx.arena <- Array.make (Array.length ctx.program.funcs) None;
    match ctx.arena.(fidx) with
    | Some s when (not s.a_busy) && slot_fits f s ->
        s.a_busy <- true;
        Array.blit f.reg_defaults 0 s.a_regs 0 (Array.length f.reg_defaults);
        (match f.spec with
        | Some sp ->
            Bytes.blit sp.ibank_init 0 s.a_ibank 0 (Bytes.length sp.ibank_init);
            Array.blit sp.fbank_init 0 s.a_fbank 0 (Array.length sp.fbank_init)
        | None -> ());
        poison_uninit f s.a_regs;
        if Hilti_obs.Metrics.enabled () then Hilti_obs.Metrics.incr m_frames_reused;
        Some s
    | Some s when s.a_busy ->
        (* Parked-fiber overlap: a suspended activation still owns the
           slot.  Copy, and meter the cost for the suspend class. *)
        if susp && Hilti_obs.Metrics.enabled () then
          Hilti_obs.Metrics.incr m_frame_suspend_copies;
        None
    | _ ->
        (* First licensed activation (or a stale-shaped slot): build the
           slot from the templates; later activations reuse it. *)
        let s =
          {
            a_regs = Array.copy f.reg_defaults;
            a_ibank =
              (match f.spec with
              | Some sp -> Bytes.copy sp.ibank_init
              | None -> Bytes.empty);
            a_fbank =
              (match f.spec with
              | Some sp -> Array.copy sp.fbank_init
              | None -> [||]);
            a_busy = true;
          }
        in
        poison_uninit f s.a_regs;
        ctx.arena.(fidx) <- Some s;
        Some s
  end

let release_frame = function Some s -> s.a_busy <- false | None -> ()

(* The register banks an activation starts from: its arena slot's
   ([acquire_frame] already blitted the templates over them) or fresh
   copies of the function's templates. *)
let activation_ibank slot (f : Bytecode.func) =
  match (slot, f.spec) with
  | Some s, _ -> s.a_ibank
  | None, Some sp -> Bytes.copy sp.ibank_init
  | None, None -> Bytes.empty

let activation_fbank slot (f : Bytecode.func) =
  match (slot, f.spec) with
  | Some s, _ -> s.a_fbank
  | None, Some sp -> Array.copy sp.fbank_init
  | None, None -> [||]

(* Unchecked 64-bit bank accesses for the specialized dispatch loop:
   {!Verify} type-checks every specialized opcode's slot against the bank
   sizes in [func.spec], so the bounds checks are statically discharged —
   same contract as [ureg]/[usetreg].  These are the unboxing-aware
   compiler primitives, so reads feed arithmetic without allocating. *)
external ibank_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external ibank_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Preallocated booleans so specialized comparisons never allocate their
   boxed result. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* Printf-lite formatting for string.format: %s %d %f %%. *)
let format_string fmt args =
  let buf = Buffer.create (String.length fmt + 16) in
  let args = ref args in
  let next () =
    match !args with
    | [] -> raise (Value.value_error "string.format: not enough arguments")
    | a :: rest ->
        args := rest;
        a
  in
  let n = String.length fmt in
  let i = ref 0 in
  while !i < n do
    if fmt.[!i] = '%' && !i + 1 < n then begin
      (match fmt.[!i + 1] with
      | 's' -> Buffer.add_string buf (Value.to_string (next ()))
      | 'd' -> Buffer.add_string buf (Int64.to_string (Value.as_int (next ())))
      | 'f' -> Buffer.add_string buf (Printf.sprintf "%f" (Value.as_double (next ())))
      | 'g' -> Buffer.add_string buf (Printf.sprintf "%g" (Value.as_double (next ())))
      | 'x' -> Buffer.add_string buf (Printf.sprintf "%Lx" (Value.as_int (next ())))
      | '%' -> Buffer.add_char buf '%'
      | c -> raise (Value.value_error (Printf.sprintf "string.format: bad %%%c" c)));
      i := !i + 2
    end
    else begin
      Buffer.add_char buf fmt.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* ---- Primitive dispatch ------------------------------------------------------------- *)

let rec exec_prim ctx (p : prim) (args : Value.t array) : Value.t =
  let a n = args.(n) in
  match p with
  | P_select -> if Value.as_bool (a 0) then a 1 else a 2
  | P_equal -> Value.Bool (Value.equal (a 0) (a 1))
  | P_make_tuple -> Value.Tuple (Array.copy args)
  | P_new spec -> exec_new ctx spec args
  | P_bool_and -> Value.Bool (Value.as_bool (a 0) && Value.as_bool (a 1))
  | P_bool_or -> Value.Bool (Value.as_bool (a 0) || Value.as_bool (a 1))
  | P_bool_not -> Value.Bool (not (Value.as_bool (a 0)))
  | P_int_arith (op, w) -> Value.Int (int_arith op w (Value.as_int (a 0)) (Value.as_int (a 1)))
  | P_int_cmp c -> Value.Bool (compare_by c (Int64.compare (Value.as_int (a 0)) (Value.as_int (a 1))))
  | P_int_neg w -> Value.Int (wrap w (Int64.neg (Value.as_int (a 0))))
  | P_int_abs -> Value.Int (Int64.abs (Value.as_int (a 0)))
  | P_int_to_double -> Value.Double (Int64.to_float (Value.as_int (a 0)))
  | P_int_to_time -> Value.Time (Hilti_types.Time_ns.of_secs (Value.as_int_i (a 0)))
  | P_int_to_interval -> Value.Interval (Hilti_types.Interval_ns.of_secs (Value.as_int_i (a 0)))
  | P_int_to_string ->
      let base = if Array.length args > 1 then Value.as_int_i (a 1) else 10 in
      let v = Value.as_int (a 0) in
      Value.String
        (match base with
        | 10 -> Int64.to_string v
        | 16 -> Printf.sprintf "%Lx" v
        | 8 -> Printf.sprintf "%Lo" v
        | _ -> raise (Value.value_error "int.to_string: base must be 8, 10 or 16"))
  | P_double_arith op ->
      let x = Value.as_double (a 0) and y = Value.as_double (a 1) in
      Value.Double
        (match op with
        | A_add -> x +. y
        | A_sub -> x -. y
        | A_mul -> x *. y
        | A_div -> if y = 0. then raise (Value.division_by_zero ()) else x /. y
        | _ -> fail "double arith")
  | P_double_cmp c ->
      Value.Bool (compare_by c (Float.compare (Value.as_double (a 0)) (Value.as_double (a 1))))
  | P_double_neg -> Value.Double (-.Value.as_double (a 0))
  | P_double_abs -> Value.Double (Float.abs (Value.as_double (a 0)))
  | P_double_to_int -> Value.Int (Int64.of_float (Value.as_double (a 0)))
  | P_string op -> exec_string op args
  | P_bytes op -> exec_bytes op args
  | P_iter op -> exec_iter op args
  | P_addr op -> exec_addr op args
  | P_port op -> exec_port op args
  | P_net op -> exec_net op args
  | P_time op -> exec_time op args
  | P_interval op -> exec_interval op args
  | P_tuple_get i ->
      let t = Value.as_tuple (a 0) in
      if i < 0 || i >= Array.length t then raise (Value.index_error ()) else t.(i)
  | P_tuple_length -> Value.Int (Int64.of_int (Array.length (Value.as_tuple (a 0))))
  | P_tuple_eq -> Value.Bool (Value.equal (a 0) (a 1))
  | P_struct op -> exec_struct op args
  | P_enum_from_int name ->
      let v = Value.as_int_i (a 0) in
      let known =
        match Hashtbl.find_opt ctx.program.types name with
        | Some (Module_ir.Enum_decl labels) -> List.exists (fun (_, x) -> x = v) labels
        | _ -> false
      in
      Value.Enum (name, v, not known)
  | P_enum_value -> (
      match a 0 with
      | Value.Enum (_, v, _) -> Value.Int (Int64.of_int v)
      | v -> raise (Value.type_error ("enum: " ^ Value.to_string v)))
  | P_enum_eq -> Value.Bool (Value.equal (a 0) (a 1))
  | P_bitset_set mask -> (
      match a 0 with
      | Value.Bitset (n, bits) -> Value.Bitset (n, Int64.logor bits mask)
      | v -> raise (Value.type_error ("bitset: " ^ Value.to_string v)))
  | P_bitset_clear mask -> (
      match a 0 with
      | Value.Bitset (n, bits) -> Value.Bitset (n, Int64.logand bits (Int64.lognot mask))
      | v -> raise (Value.type_error ("bitset: " ^ Value.to_string v)))
  | P_bitset_has mask -> (
      match a 0 with
      | Value.Bitset (_, bits) -> Value.Bool (Int64.logand bits mask = mask)
      | v -> raise (Value.type_error ("bitset: " ^ Value.to_string v)))
  | P_bitset_eq -> Value.Bool (Value.equal (a 0) (a 1))
  | P_list op -> exec_list op args
  | P_vector op -> exec_vector op args
  | P_set op -> exec_set ctx op args
  | P_map op -> exec_map ctx op args
  | P_channel op -> exec_channel op args
  | P_classifier op -> exec_classifier op args
  | P_regexp op -> exec_regexp op args
  | P_overlay_get spec -> exec_overlay ctx spec args
  | P_timer_new ->
      let c = Value.as_callable (a 0) in
      Value.Timer (Hilti_rt.Timer.create (fun () -> ignore (c.Value.invoke ())))
  | P_timer_cancel ->
      Hilti_rt.Timer.cancel (Value.as_timer (a 0));
      Value.Null
  | P_timer_mgr_schedule ->
      let mgr = Value.as_timer_mgr (a 0) in
      let at = Value.as_time (a 1) in
      let timer =
        match a 2 with
        | Value.Timer t -> t
        | Value.Callable c -> Hilti_rt.Timer.create (fun () -> ignore (c.Value.invoke ()))
        | v -> raise (Value.type_error ("timer: " ^ Value.to_string v))
      in
      Hilti_rt.Timer_mgr.schedule mgr timer at;
      Value.Timer timer
  | P_timer_mgr_advance ->
      ignore (Hilti_rt.Timer_mgr.advance (Value.as_timer_mgr (a 0)) (Value.as_time (a 1)));
      Value.Null
  | P_timer_mgr_advance_global ->
      ignore (Hilti_rt.Timer_mgr.advance (current_timer_mgr ctx) (Value.as_time (a 0)));
      Value.Null
  | P_timer_mgr_current -> Value.Time (Hilti_rt.Timer_mgr.current (Value.as_timer_mgr (a 0)))
  | P_timer_mgr_expire_all ->
      ignore (Hilti_rt.Timer_mgr.expire_all (Value.as_timer_mgr (a 0)));
      Value.Null
  | P_thread_id -> Value.Int ctx.current_thread
  | P_exc_new ->
      let name = Value.as_string (a 0) in
      let arg = if Array.length args > 1 then a 1 else Value.Null in
      Value.Exception { ename = name; earg = arg }
  | P_exc_data -> (Value.as_exception (a 0)).Value.earg
  | P_exc_name -> Value.String (Value.as_exception (a 0)).Value.ename
  | P_file op -> exec_file ctx op args
  | P_iosrc_read -> (
      match Hilti_rt.Iosrc.read (Value.as_iosrc (a 0)) with
      | Some pkt ->
          let b = Hilti_types.Hbytes.of_string pkt.Hilti_rt.Iosrc.data in
          Hilti_types.Hbytes.freeze b;
          Value.Tuple [| Value.Time pkt.Hilti_rt.Iosrc.ts; Value.Bytes b |]
      | None -> raise (Value.exhausted ()))
  | P_iosrc_close -> Value.Null
  | P_profiler op ->
      let p = Hilti_rt.Profiler.find_or_create (Value.as_string (a 0)) in
      (match op with
      | PR_start -> Hilti_rt.Profiler.start p
      | PR_stop -> Hilti_rt.Profiler.stop p
      | PR_snapshot -> Hilti_rt.Profiler.snapshot p);
      Value.Null
  | P_debug op -> (
      match op with
      | D_msg ->
          let msg =
            if Array.length args > 1 then
              Printf.sprintf "[%s] %s" (Value.to_string (a 0)) (Value.to_string (a 1))
            else Value.to_string (a 0)
          in
          ctx.debug_sink msg;
          Value.Null
      | D_assert ->
          if not (Value.as_bool (a 0)) then
            raise
              (Value.hilti_exception "Hilti::AssertionError"
                 (if Array.length args > 1 then a 1 else Value.Null))
          else Value.Null
      | D_internal_error ->
          raise (Value.hilti_exception "Hilti::InternalError" (a 0)))
  | P_callable_call -> (Value.as_callable (a 0)).Value.invoke ()

and exec_new _ctx spec args =
  match spec with
  | New_struct (name, fields) -> Value.Struct (Value.new_struct name fields)
  | New_list -> Value.List (Deque.create ())
  | New_vector -> Value.Vector (Dynarray.create ())
  | New_set -> Value.Set (Hilti_rt.Exp_map.create ())
  | New_map -> Value.Map (Hilti_rt.Exp_map.create ())
  | New_bytes -> Value.Bytes (Hilti_types.Hbytes.create ())
  | New_channel cap -> Value.Channel (Hilti_rt.Channel.create ?capacity:cap ())
  | New_timer_mgr -> Value.Timer_mgr (Hilti_rt.Timer_mgr.create ())
  | New_classifier nfields ->
      Value.Classifier
        { Value.cls = Hilti_rt.Classifier.create nfields; key_types = [] }
  | New_match_state ->
      let re = Value.as_regexp args.(0) in
      Value.Match_state (Hilti_rt.Regexp.matcher re)

and exec_string op args =
  let a n = args.(n) in
  let s n = Value.as_string (a n) in
  match op with
  | S_concat -> Value.String (s 0 ^ s 1)
  | S_length -> Value.Int (Int64.of_int (String.length (s 0)))
  | S_eq -> Value.Bool (String.equal (s 0) (s 1))
  | S_lt -> Value.Bool (String.compare (s 0) (s 1) < 0)
  | S_find -> (
      let hay = s 0 and needle = s 1 in
      let nl = String.length needle and hl = String.length hay in
      let rec go i =
        if i + nl > hl then Value.Int (-1L)
        else if String.sub hay i nl = needle then Value.Int (Int64.of_int i)
        else go (i + 1)
      in
      go 0)
  | S_substr ->
      let str = s 0 and start = Value.as_int_i (a 1) and len = Value.as_int_i (a 2) in
      if start < 0 || len < 0 || start + len > String.length str then
        raise (Value.index_error ())
      else Value.String (String.sub str start len)
  | S_to_bytes ->
      let b = Hilti_types.Hbytes.of_string (s 0) in
      Hilti_types.Hbytes.freeze b;
      Value.Bytes b
  | S_upper -> Value.String (String.uppercase_ascii (s 0))
  | S_lower -> Value.String (String.lowercase_ascii (s 0))
  | S_starts_with ->
      let str = s 0 and p = s 1 in
      Value.Bool
        (String.length p <= String.length str && String.sub str 0 (String.length p) = p)
  | S_contains -> (
      match exec_string S_find args with
      | Value.Int i -> Value.Bool (i >= 0L)
      | _ -> assert false)
  | S_split1 -> (
      let str = s 0 and sep = s 1 in
      match exec_string S_find [| a 0; a 1 |] with
      | Value.Int i when i >= 0L ->
          let i = Int64.to_int i in
          Value.Tuple
            [| Value.String (String.sub str 0 i);
               Value.String
                 (String.sub str (i + String.length sep)
                    (String.length str - i - String.length sep)) |]
      | _ -> Value.Tuple [| Value.String str; Value.String "" |])
  | S_format ->
      let fmt = s 0 in
      Value.String (format_string fmt (List.tl (Array.to_list args)))

and exec_bytes op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | B_new -> Value.Bytes (Hbytes.create ())
  | B_length -> Value.Int (Int64.of_int (Hbytes.length (Value.as_bytes (a 0))))
  | B_append ->
      let b = Value.as_bytes (a 0) in
      (match a 1 with
      | Value.Bytes src -> Hbytes.append b (Hbytes.to_string src)
      | Value.String s -> Hbytes.append b s
      | v -> raise (Value.type_error ("bytes.append: " ^ Value.to_string v)));
      Value.Null
  | B_freeze ->
      Hbytes.freeze (Value.as_bytes (a 0));
      Value.Null
  | B_is_frozen -> Value.Bool (Hbytes.is_frozen (Value.as_bytes (a 0)))
  | B_trim ->
      (* Accepts the bytes object itself or any iterator into it: generated
         parsers only hold iterators, never the underlying stream value. *)
      let target =
        match a 0 with
        | Value.Bytes b -> b
        | Value.Iter (Value.Ibytes it) -> it.Hbytes.bytes
        | v -> raise (Value.type_error ("bytes.trim: " ^ Value.to_string v))
      in
      Hbytes.trim target (Value.as_bytes_iter (a 1));
      Value.Null
  | B_sub ->
      let i1 = Value.as_bytes_iter (a 0) and i2 = Value.as_bytes_iter (a 1) in
      Value.Bytes (Hbytes.frozen_of_string (Hbytes.sub i1 i2))
  | B_find -> (
      let from =
        match a 0 with
        | Value.Bytes b -> Hbytes.begin_ b
        | Value.Iter (Value.Ibytes it) -> it
        | v -> raise (Value.type_error ("bytes.find: " ^ Value.to_string v))
      in
      let from =
        if Array.length args > 2 then Value.as_bytes_iter (a 2) else from
      in
      let needle =
        match a 1 with
        | Value.Bytes b -> Hbytes.to_string b
        | Value.String s -> s
        | v -> raise (Value.type_error ("bytes.find: " ^ Value.to_string v))
      in
      match Hbytes.find from needle with
      | Some it -> Value.Tuple [| Value.Bool true; Value.Iter (Value.Ibytes it) |]
      | None ->
          Value.Tuple
            [| Value.Bool false;
               Value.Iter (Value.Ibytes from) |])
  | B_match_prefix ->
      let it = Value.as_bytes_iter (a 0) in
      let s =
        match a 1 with
        | Value.Bytes b -> Hbytes.to_string b
        | Value.String s -> s
        | v -> raise (Value.type_error ("bytes.match_prefix: " ^ Value.to_string v))
      in
      Value.Bool (blocking (fun () -> Hbytes.match_prefix it s))
  | B_can_read ->
      let it = Value.as_bytes_iter (a 0) in
      Value.Bool (Hbytes.available it >= Value.as_int_i (a 1))
  | B_read ->
      let it = Value.as_bytes_iter (a 0) and n = Value.as_int_i (a 1) in
      if n < 0 then raise (Value.value_error "bytes.read: negative length");
      bytes_read it n
  | B_to_string -> Value.String (Hbytes.to_string (Value.as_bytes (a 0)))
  | B_to_int -> (
      let s = String.trim (Hbytes.to_string (Value.as_bytes (a 0))) in
      let base = if Array.length args > 1 then Value.as_int_i (a 1) else 10 in
      let s_prefixed =
        match base with
        | 10 -> s
        | 16 -> "0x" ^ s
        | 8 -> "0o" ^ s
        | _ -> raise (Value.value_error "bytes.to_int: bad base")
      in
      match Int64.of_string_opt s_prefixed with
      | Some v -> Value.Int v
      | None -> raise (Value.value_error ("bytes.to_int: " ^ s)))
  | B_eq ->
      Value.Bool
        (Hbytes.to_string (Value.as_bytes (a 0)) = Hbytes.to_string (Value.as_bytes (a 1)))
  | B_starts_with ->
      let b = Value.as_bytes (a 0) in
      let s =
        match a 1 with
        | Value.Bytes x -> Hbytes.to_string x
        | Value.String x -> x
        | v -> raise (Value.type_error (Value.to_string v))
      in
      let content = Hbytes.to_string b in
      Value.Bool
        (String.length s <= String.length content
        && String.sub content 0 (String.length s) = s)
  | B_contains -> (
      let b = Value.as_bytes (a 0) in
      let s =
        match a 1 with
        | Value.Bytes x -> Hbytes.to_string x
        | Value.String x -> x
        | v -> raise (Value.type_error (Value.to_string v))
      in
      match Hbytes.find (Hbytes.begin_ b) s with
      | Some _ -> Value.Bool true
      | None -> Value.Bool false)
  | B_offset ->
      let b = Value.as_bytes (a 0) in
      Value.Iter (Value.Ibytes (Hbytes.iter_at b (Value.as_int_i (a 1))))
  | B_unpack_uint | B_unpack_sint ->
      let it = Value.as_bytes_iter (a 0) in
      let width = Value.as_int_i (a 1) in
      let order = if Value.as_bool (a 2) then Hbytes.Big else Hbytes.Little in
      bytes_unpack ~signed:(op = B_unpack_sint) it ~width ~order
  | B_upper ->
      let b = Hbytes.of_string (String.uppercase_ascii (Hbytes.to_string (Value.as_bytes (a 0)))) in
      Hbytes.freeze b;
      Value.Bytes b
  | B_lower ->
      let b = Hbytes.of_string (String.lowercase_ascii (Hbytes.to_string (Value.as_bytes (a 0)))) in
      Hbytes.freeze b;
      Value.Bytes b

and exec_iter op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | I_begin -> (
      match a 0 with
      | Value.Bytes b -> Value.Iter (Value.Ibytes (Hbytes.begin_ b))
      | Value.List d -> Value.Iter (Value.Isnapshot (ref (Deque.to_list d)))
      | Value.Vector v -> Value.Iter (Value.Ivector (v, 0))
      | Value.Set s ->
          let elems = Hilti_rt.Exp_map.fold (fun _ v acc -> v :: acc) s [] in
          Value.Iter (Value.Isnapshot (ref (List.rev elems)))
      | Value.Map m ->
          let elems =
            Hilti_rt.Exp_map.fold
              (fun _ (k, v) acc -> Value.Tuple [| k; v |] :: acc)
              m []
          in
          Value.Iter (Value.Isnapshot (ref (List.rev elems)))
      | v -> raise (Value.type_error ("iter.begin: " ^ Value.to_string v)))
  | I_end -> (
      match a 0 with
      | Value.Bytes b -> Value.Iter (Value.Ibytes (Hbytes.end_ b))
      | Value.Iter (Value.Ibytes it) ->
          (* End of the iterator's underlying bytes object. *)
          Value.Iter (Value.Ibytes (Hbytes.end_ (it_bytes it)))
      | Value.List _ | Value.Set _ | Value.Map _ ->
          Value.Iter (Value.Isnapshot (ref []))
      | Value.Vector v -> Value.Iter (Value.Ivector (v, Dynarray.size v))
      | v -> raise (Value.type_error ("iter.end: " ^ Value.to_string v)))
  | I_incr -> (
      match Value.as_iter (a 0) with
      | Value.Ibytes it -> Value.Iter (Value.Ibytes (Hbytes.incr it))
      | Value.Isnapshot l -> (
          match !l with
          | [] -> raise (Value.index_error ())
          | _ :: rest -> Value.Iter (Value.Isnapshot (ref rest)))
      | Value.Ivector (v, i) -> Value.Iter (Value.Ivector (v, i + 1)))
  | I_advance -> (
      let n = Value.as_int_i (a 1) in
      match Value.as_iter (a 0) with
      | Value.Ibytes it -> Value.Iter (Value.Ibytes (Hbytes.advance it n))
      | Value.Isnapshot l ->
          let rec drop k lst = if k <= 0 then lst else match lst with [] -> [] | _ :: r -> drop (k - 1) r in
          Value.Iter (Value.Isnapshot (ref (drop n !l)))
      | Value.Ivector (v, i) -> Value.Iter (Value.Ivector (v, i + n)))
  | I_deref -> (
      match Value.as_iter (a 0) with
      | Value.Ibytes it -> Value.Int (Int64.of_int (blocking (fun () -> Hbytes.get it)))
      | Value.Isnapshot l -> (
          match !l with [] -> raise (Value.index_error ()) | x :: _ -> x)
      | Value.Ivector (v, i) -> (
          match Dynarray.get v i with
          | x -> x
          | exception Dynarray.Out_of_bounds -> raise (Value.index_error ())))
  | I_eq -> (
      match (Value.as_iter (a 0), Value.as_iter (a 1)) with
      | Value.Ibytes x, Value.Ibytes y -> Value.Bool (Hbytes.iter_equal x y)
      | Value.Isnapshot x, Value.Isnapshot y ->
          Value.Bool (List.length !x = List.length !y)
      | Value.Ivector (_, i), Value.Ivector (_, j) -> Value.Bool (i = j)
      | _ -> Value.Bool false)
  | I_distance -> (
      match (Value.as_iter (a 0), Value.as_iter (a 1)) with
      | Value.Ibytes x, Value.Ibytes y -> Value.Int (Int64.of_int (Hbytes.distance x y))
      | Value.Ivector (_, i), Value.Ivector (_, j) -> Value.Int (Int64.of_int (j - i))
      | _ -> raise (Value.type_error "iter.distance"))
  | I_at_end -> (
      match Value.as_iter (a 0) with
      | Value.Ibytes it -> Value.Bool (Hbytes.at_end it)
      | Value.Isnapshot l -> Value.Bool (!l = [])
      | Value.Ivector (v, i) -> Value.Bool (i >= Dynarray.size v))
  | I_is_eod -> (
      match Value.as_iter (a 0) with
      | Value.Ibytes it -> Value.Bool (Hbytes.is_eod it)
      | Value.Isnapshot l -> Value.Bool (!l = [])
      | Value.Ivector (v, i) -> Value.Bool (i >= Dynarray.size v))
  | I_is_frozen -> (
      match Value.as_iter (a 0) with
      | Value.Ibytes it -> Value.Bool (Hbytes.is_frozen (it_bytes it))
      | Value.Isnapshot _ | Value.Ivector _ -> Value.Bool true)

and exec_addr op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | AD_family ->
      let fam = Addr.family (Value.as_addr (a 0)) in
      Value.Enum ("Hilti::AddrFamily", (match fam with Addr.IPv4 -> 4 | Addr.IPv6 -> 6), false)
  | AD_eq -> Value.Bool (Addr.equal (Value.as_addr (a 0)) (Value.as_addr (a 1)))
  | AD_mask ->
      let addr = Value.as_addr (a 0) and len = Value.as_int_i (a 1) in
      Value.Net (Network.make addr len)
  | AD_to_string -> Value.String (Addr.to_string (Value.as_addr (a 0)))

and exec_port op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | PO_protocol ->
      let proto = Port.proto (Value.as_port (a 0)) in
      Value.Enum
        ( "Hilti::Protocol",
          (match proto with Port.TCP -> 1 | Port.UDP -> 2 | Port.ICMP -> 3),
          false )
  | PO_number -> Value.Int (Int64.of_int (Port.number (Value.as_port (a 0))))
  | PO_eq -> Value.Bool (Port.equal (Value.as_port (a 0)) (Value.as_port (a 1)))

and exec_net op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | NE_contains -> Value.Bool (Network.contains (Value.as_net (a 0)) (Value.as_addr (a 1)))
  | NE_prefix -> Value.Addr (Network.prefix (Value.as_net (a 0)))
  | NE_length -> Value.Int (Int64.of_int (Network.length (Value.as_net (a 0))))
  | NE_eq -> Value.Bool (Network.equal (Value.as_net (a 0)) (Value.as_net (a 1)))

and exec_time op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | TI_add -> Value.Time (Time_ns.add (Value.as_time (a 0)) (Interval_ns.to_ns (Value.as_interval (a 1))))
  | TI_sub -> Value.Interval (Interval_ns.of_ns (Time_ns.diff (Value.as_time (a 0)) (Value.as_time (a 1))))
  | TI_cmp c -> Value.Bool (compare_by c (Time_ns.compare (Value.as_time (a 0)) (Value.as_time (a 1))))
  | TI_wall -> Value.Time (Time_ns.now ())
  | TI_to_double -> Value.Double (Time_ns.to_float (Value.as_time (a 0)))
  | TI_nsecs -> Value.Int (Time_ns.to_ns (Value.as_time (a 0)))

and exec_interval op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | IV_add -> Value.Interval (Interval_ns.add (Value.as_interval (a 0)) (Value.as_interval (a 1)))
  | IV_sub -> Value.Interval (Interval_ns.sub (Value.as_interval (a 0)) (Value.as_interval (a 1)))
  | IV_mul -> Value.Interval (Interval_ns.mul (Value.as_interval (a 0)) (Value.as_int_i (a 1)))
  | IV_eq -> Value.Bool (Interval_ns.equal (Value.as_interval (a 0)) (Value.as_interval (a 1)))
  | IV_lt -> Value.Bool (Interval_ns.compare (Value.as_interval (a 0)) (Value.as_interval (a 1)) < 0)
  | IV_to_double -> Value.Double (Interval_ns.to_float (Value.as_interval (a 0)))
  | IV_nsecs -> Value.Int (Interval_ns.to_ns (Value.as_interval (a 0)))

and exec_struct op args =
  let a n = args.(n) in
  let s = Value.as_struct (a 0) in
  match op with
  | ST_get f -> (
      match !(Value.struct_field s f) with
      | Some v -> v
      | None -> raise (Value.unset_field f))
  | ST_get_default f -> (
      match !(Value.struct_field s f) with Some v -> v | None -> a 1)
  | ST_set f ->
      Value.struct_field s f := Some (a 1);
      Value.Null
  | ST_unset f ->
      Value.struct_field s f := None;
      Value.Null
  | ST_is_set f -> Value.Bool (!(Value.struct_field s f) <> None)

and exec_list op args =
  let a n = args.(n) in
  let d = Value.as_list (a 0) in
  match op with
  | L_append ->
      Deque.push_back d (a 1);
      Value.Null
  | L_push_front ->
      Deque.push_front d (a 1);
      Value.Null
  | L_pop_front -> (
      match Deque.pop_front d with Some v -> v | None -> raise (Value.underflow ()))
  | L_front -> (
      match Deque.peek_front d with Some v -> v | None -> raise (Value.underflow ()))
  | L_back -> (
      match Deque.peek_back d with Some v -> v | None -> raise (Value.underflow ()))
  | L_size -> Value.Int (Int64.of_int (Deque.size d))
  | L_clear ->
      Deque.clear d;
      Value.Null

and exec_vector op args =
  let a n = args.(n) in
  let v = Value.as_vector (a 0) in
  let guard f = try f () with Dynarray.Out_of_bounds -> raise (Value.index_error ()) in
  match op with
  | V_push_back ->
      Dynarray.push v (a 1);
      Value.Null
  | V_get -> guard (fun () -> Dynarray.get v (Value.as_int_i (a 1)))
  | V_set ->
      guard (fun () ->
          Dynarray.set v (Value.as_int_i (a 1)) (a 2);
          Value.Null)
  | V_size -> Value.Int (Int64.of_int (Dynarray.size v))
  | V_reserve ->
      Dynarray.reserve v (Value.as_int_i (a 1));
      Value.Null
  | V_clear ->
      Dynarray.clear v;
      Value.Null
  | V_pop_back -> guard (fun () -> Dynarray.pop v)

and expire_strategy_of args i =
  (* (strategy enum, interval) trailing arguments of *.timeout. *)
  let strategy_val =
    match args.(i) with
    | Value.Enum (_, v, _) -> v
    | Value.Int v -> Int64.to_int v
    | v -> raise (Value.type_error ("expire strategy: " ^ Value.to_string v))
  in
  let ival = Value.as_interval args.(i + 1) in
  match strategy_val with
  | 0 -> Hilti_rt.Expire.Create ival
  | 1 -> Hilti_rt.Expire.Access ival
  | 2 -> Hilti_rt.Expire.Write ival
  | _ -> Hilti_rt.Expire.Never

and exec_set ctx op args =
  let a n = args.(n) in
  let s = Value.as_set (a 0) in
  match op with
  | SE_insert ->
      Hilti_rt.Exp_map.insert s (Value.key_string (a 1)) (a 1);
      Value.Null
  | SE_exists -> Value.Bool (Hilti_rt.Exp_map.mem_touch s (Value.key_string (a 1)))
  | SE_remove ->
      Hilti_rt.Exp_map.remove s (Value.key_string (a 1));
      Value.Null
  | SE_size -> Value.Int (Int64.of_int (Hilti_rt.Exp_map.size s))
  | SE_clear ->
      Hilti_rt.Exp_map.clear s;
      Value.Null
  | SE_timeout ->
      Hilti_rt.Exp_map.set_timeout s (expire_strategy_of args 1) (current_timer_mgr ctx);
      Value.Null

and exec_map ctx op args =
  let a n = args.(n) in
  let m = Value.as_map (a 0) in
  match op with
  | M_insert ->
      Hilti_rt.Exp_map.insert m (Value.key_string (a 1)) (a 1, a 2);
      Value.Null
  | M_get -> (
      match Hilti_rt.Exp_map.find_opt m (Value.key_string (a 1)) with
      | Some (_, v) -> v
      | None -> raise (Value.index_error ()))
  | M_get_default -> (
      match Hilti_rt.Exp_map.find_opt m (Value.key_string (a 1)) with
      | Some (_, v) -> v
      | None -> a 2)
  | M_exists -> Value.Bool (Hilti_rt.Exp_map.mem_touch m (Value.key_string (a 1)))
  | M_remove ->
      Hilti_rt.Exp_map.remove m (Value.key_string (a 1));
      Value.Null
  | M_size -> Value.Int (Int64.of_int (Hilti_rt.Exp_map.size m))
  | M_clear ->
      Hilti_rt.Exp_map.clear m;
      Value.Null
  | M_default ->
      let default = a 1 in
      Hilti_rt.Exp_map.set_default m (fun _ -> (Value.Null, Value.deep_copy default));
      Value.Null
  | M_timeout ->
      Hilti_rt.Exp_map.set_timeout m (expire_strategy_of args 1) (current_timer_mgr ctx);
      Value.Null

and exec_channel op args =
  let a n = args.(n) in
  let c = Value.as_channel (a 0) in
  match op with
  | CH_write ->
      blocking (fun () ->
          if not (Hilti_rt.Channel.try_write c (Value.deep_copy (a 1))) then
            raise Hilti_types.Hbytes.Would_block);
      Value.Null
  | CH_read ->
      blocking (fun () ->
          match Hilti_rt.Channel.try_read c with
          | Some v -> v
          | None -> raise Hilti_types.Hbytes.Would_block)
  | CH_try_read -> (
      match Hilti_rt.Channel.try_read c with
      | Some v -> Value.Tuple [| Value.Bool true; v |]
      | None -> Value.Tuple [| Value.Bool false; Value.Null |])
  | CH_size -> Value.Int (Int64.of_int (Hilti_rt.Channel.size c))

and classifier_field_of_value (v : Value.t) : Hilti_rt.Classifier.field =
  let open Hilti_types in
  match v with
  | Value.Net n -> Hilti_rt.Classifier.field_of_network n
  | Value.Addr addr -> Hilti_rt.Classifier.field_of_addr addr
  | Value.Port p -> Hilti_rt.Classifier.field_of_port p
  | Value.Int i ->
      let b = Bytes.create 8 in
      Bytes.set_int64_be b 0 i;
      Hilti_rt.Classifier.field_of_string (Bytes.to_string b)
  | Value.Bool b_ ->
      Hilti_rt.Classifier.field_of_string (if b_ then "\x01" else "\x00")
  | Value.Bytes b -> Hilti_rt.Classifier.field_of_string (Hbytes.to_string b)
  | Value.String s -> Hilti_rt.Classifier.field_of_string s
  | Value.Null -> Hilti_rt.Classifier.wildcard
  | v -> raise (Value.type_error ("classifier field: " ^ Value.to_string v))

and classifier_key_of_value (v : Value.t) : string =
  (classifier_field_of_value v).Hilti_rt.Classifier.data

and exec_classifier op args =
  let a n = args.(n) in
  let c = Value.as_classifier (a 0) in
  match op with
  | CL_add ->
      let fields =
        match a 1 with
        | Value.Tuple vs -> Array.map classifier_field_of_value vs
        | Value.Struct s ->
            Array.map
              (fun (_, f) ->
                match !f with
                | Some v -> classifier_field_of_value v
                | None -> Hilti_rt.Classifier.wildcard)
              s.Value.sfields
        | v -> [| classifier_field_of_value v |]
      in
      let priority =
        if Array.length args > 3 then Value.as_int_i (a 3) else 0
      in
      Hilti_rt.Classifier.add c.Value.cls ~priority fields (a 2);
      Value.Null
  | CL_compile ->
      Hilti_rt.Classifier.compile c.Value.cls;
      Value.Null
  | CL_get -> (
      let keys =
        match a 1 with
        | Value.Tuple vs -> Array.map classifier_key_of_value vs
        | v -> [| classifier_key_of_value v |]
      in
      match Hilti_rt.Classifier.get c.Value.cls keys with
      | Some v -> v
      | None -> raise (Value.index_error ()))
  | CL_matches -> (
      let keys =
        match a 1 with
        | Value.Tuple vs -> Array.map classifier_key_of_value vs
        | v -> [| classifier_key_of_value v |]
      in
      match Hilti_rt.Classifier.get c.Value.cls keys with
      | Some _ -> Value.Bool true
      | None -> Value.Bool false)

and exec_regexp op args =
  let a n = args.(n) in
  let open Hilti_types in
  match op with
  | RE_compile ->
      let patterns =
        match a 0 with
        | Value.String s -> [ s ]
        | Value.Bytes b -> [ Hbytes.to_string b ]
        | Value.List d ->
            List.map
              (function
                | Value.String s -> s
                | Value.Bytes b -> Hbytes.to_string b
                | v -> raise (Value.type_error (Value.to_string v)))
              (Deque.to_list d)
        | Value.Tuple vs ->
            Array.to_list
              (Array.map
                 (function
                   | Value.String s -> s
                   | Value.Bytes b -> Hbytes.to_string b
                   | v -> raise (Value.type_error (Value.to_string v)))
                 vs)
        | v -> raise (Value.type_error ("regexp.compile: " ^ Value.to_string v))
      in
      Value.Regexp (Hilti_rt.Regexp.compile patterns)
  | RE_find -> (
      let re = Value.as_regexp (a 0) in
      let it =
        match a 1 with
        | Value.Bytes b -> Hbytes.begin_ b
        | Value.Iter (Value.Ibytes it) -> it
        | v -> raise (Value.type_error (Value.to_string v))
      in
      let data = Hbytes.sub it (Hbytes.end_ (it_bytes it)) in
      match Hilti_rt.Regexp.search re data ~pos:0 with
      | Some (_, id, _) -> Value.Int (Int64.of_int id)
      | None -> Value.Int (-1L))
  | RE_match_token ->
      let re = Value.as_regexp (a 0) in
      let it = Value.as_bytes_iter (a 1) in
      exec_match_token re it
  | RE_span -> (
      let re = Value.as_regexp (a 0) in
      let b = Value.as_bytes (a 1) in
      let data = Hbytes.to_string b in
      match Hilti_rt.Regexp.search re data ~pos:0 with
      | Some (start, id, len) ->
          Value.Tuple
            [| Value.Int (Int64.of_int id);
               Value.Iter (Value.Ibytes (Hbytes.iter_at b (Hbytes.start_offset b + start)));
               Value.Iter (Value.Ibytes (Hbytes.iter_at b (Hbytes.start_offset b + start + len))) |]
      | None -> Value.Tuple [| Value.Int (-1L); Value.Iter (Value.Ibytes (Hbytes.begin_ b)); Value.Iter (Value.Ibytes (Hbytes.begin_ b)) |])
  | RE_groups ->
      Value.Int (Int64.of_int (List.length (Hilti_rt.Regexp.patterns (Value.as_regexp (a 0)))))

and it_bytes (it : Hilti_types.Hbytes.iter) = it.Hilti_types.Hbytes.bytes

(* Incremental anchored token match: longest match semantics, suspending
   the fiber while the outcome is undecidable. *)
and exec_match_token re (start : Hilti_types.Hbytes.iter) : Value.t =
  let open Hilti_types in
  let m = Hilti_rt.Regexp.matcher re in
  let b = it_bytes start in
  (* Track how much we already fed across waits. *)
  let fed = ref start.Hbytes.pos in
  let rec loop2 () =
    let end_off = Hbytes.end_offset b in
    if !fed < end_off then begin
      let chunk = Hbytes.sub (Hbytes.iter_at b !fed) (Hbytes.end_ b) in
      let consumed = Hilti_rt.Regexp.feed m chunk 0 (String.length chunk) in
      fed := !fed + consumed
    end;
    let final = Hbytes.is_frozen b in
    match Hilti_rt.Regexp.result m ~final with
    | Hilti_rt.Regexp.Match (id, len) ->
        Value.Tuple
          [| Value.Int (Int64.of_int id);
             Value.Iter (Value.Ibytes (Hbytes.advance start len)) |]
    | Hilti_rt.Regexp.No_match ->
        Value.Tuple [| Value.Int (-1L); Value.Iter (Value.Ibytes start) |]
    | Hilti_rt.Regexp.Need_more ->
        (match Hilti_rt.Fiber.yield () with
        | () -> ()
        | exception Effect.Unhandled _ -> raise (Value.would_block ()));
        loop2 ()
  in
  loop2 ()

and exec_overlay ctx spec args =
  ignore ctx;
  let open Hilti_types in
  let it =
    match args.(0) with
    | Value.Bytes b -> Hbytes.begin_ b
    | Value.Iter (Value.Ibytes it) -> it
    | v -> raise (Value.type_error ("overlay.get: " ^ Value.to_string v))
  in
  let fit = Hbytes.advance it spec.ov_offset in
  match spec.ov_fmt with
  | Module_ir.U_bytes n ->
      let data, _ = blocking (fun () -> Hbytes.read fit n) in
      Value.Bytes (Hbytes.frozen_of_string data)
  | Module_ir.U_ipv4 ->
      let v, _ = blocking (fun () -> Hbytes.read_uint fit ~width:4 ~order:Hbytes.Big) in
      Value.Addr (Addr.of_ipv4_int32 (Int64.to_int32 v))
  | Module_ir.U_uint (w, order) | Module_ir.U_sint (w, order) ->
      let signed = match spec.ov_fmt with Module_ir.U_sint _ -> true | _ -> false in
      let read = if signed then Hbytes.read_sint else Hbytes.read_uint in
      let v, _ = blocking (fun () -> read fit ~width:w ~order) in
      let v =
        match spec.ov_bits with
        | Some (lo, hi) ->
            let width = hi - lo + 1 in
            Int64.logand (Int64.shift_right_logical v lo)
              (Int64.sub (Int64.shift_left 1L width) 1L)
        | None -> v
      in
      Value.Int v

and exec_file ctx op args =
  let a n = args.(n) in
  match op with
  | F_open ->
      let path = Value.as_string (a 0) in
      let mode =
        if Array.length args > 1 then Value.as_string (a 1) else "disk"
      in
      if mode = "memory" then Value.File (Hilti_rt.Hfile.open_memory ~serializer:ctx.scheduler path)
      else Value.File (Hilti_rt.Hfile.open_disk ~serializer:ctx.scheduler path)
  | F_write ->
      let f = Value.as_file (a 0) in
      let data =
        match a 1 with
        | Value.String s -> s
        | Value.Bytes b -> Hilti_types.Hbytes.to_string b
        | v -> Value.to_string v
      in
      Hilti_rt.Hfile.write f data;
      Value.Null
  | F_close ->
      Hilti_rt.Hfile.close (Value.as_file (a 0));
      Value.Null

(* ---- Primitive failure mapping -------------------------------------------------- *)

(* Substrate-level exceptions surface as HILTI exceptions so generated
   code can catch them; everything else passes through unchanged. *)
let substrate_exn = function
  | Hilti_types.Hbytes.Out_of_range -> Value.value_error "bytes: out of range"
  | Hilti_types.Hbytes.Frozen -> Value.value_error "bytes: frozen"
  | Hilti_rt.Regexp.Parse_error msg -> Value.value_error msg
  | Invalid_argument msg ->
      (* Hostile field values (e.g. a lying length that goes negative)
         reach substrate primitives; surface them as a catchable HILTI
         exception, not a raw OCaml crash. *)
      Value.value_error ("prim: " ^ msg)
  | e -> e

let guarded_prim ctx p args =
  try exec_prim ctx p args with e -> raise (substrate_exn e)

(** A hook's body function indices, in priority order ([[||]] when the
    hook has no bodies). *)
let hook_bodies (p : Bytecode.program) name =
  match Hashtbl.find_opt p.hooks name with
  | Some idxs -> Array.of_list idxs
  | None -> [||]

(* ---- Closure-tier building blocks ------------------------------------------------ *)

(* Register reads and writes of the tier.  {!Verify} proved every register
   operand in range, as for the verified loop; [-1] is the "discard"
   destination. *)
let[@inline always] get (r : Value.t array) i = Array.unsafe_get r i

let[@inline always] set (r : Value.t array) d v = if d >= 0 then Array.unsafe_set r d v

let[@inline always] vbool b = if b then vtrue else vfalse

(* Operand marshalling without an [Array.map] closure. *)
let args_array (r : Value.t array) (ar : int array) =
  let n = Array.length ar in
  if n = 0 then [||]
  else begin
    let out = Array.make n (get r (Array.unsafe_get ar 0)) in
    for i = 1 to n - 1 do
      Array.unsafe_set out i (get r (Array.unsafe_get ar i))
    done;
    out
  end

let args_list (r : Value.t array) (ar : int array) =
  let rec go i acc = if i < 0 then acc else go (i - 1) (get r (Array.unsafe_get ar i) :: acc) in
  go (Array.length ar - 1) []

(* Per-instruction struct-slot cache.  [hint] is the field's index in the
   struct last seen here; a hit is checked against the field name, and a
   miss (a struct of another layout, e.g. one built by the host in sorted
   field order) falls back to the scan and re-learns the index.  The hint
   is the one mutable word a translation owns: domains sharing the
   translation may race on it, which costs at most a re-scan. *)
type slot_cache = { mutable hint : int }

let cached_field (c : slot_cache) name (s : Value.strukt) =
  let fs = s.Value.sfields in
  let h = c.hint in
  let n = Array.length fs in
  if h < n && String.equal (fst (Array.unsafe_get fs h)) name then
    snd (Array.unsafe_get fs h)
  else begin
    let rec scan i =
      if i >= n then Value.struct_field s name (* raises UnsetField *)
      else
        let fname, f = Array.unsafe_get fs i in
        if String.equal fname name then begin
          c.hint <- i;
          f
        end
        else scan (i + 1)
    in
    scan 0
  end

(* Bank arithmetic, inlined into each closure so int64/float operands stay
   unboxed (without flambda a real call would box them).  [iarith]'s
   int64 result is boxed where its arms join, so only the checked loop
   uses it; the tier stores in each arm ([iarith_set]).  [sh] is
   [64 - width] for sub-64-bit widths and 0 otherwise: the sign-extending
   wrap of [wrap] without its branch. *)
let[@inline always] wrap_sh sh r = Int64.shift_right (Int64.shift_left r sh) sh

let[@inline always] iarith op (x : int64) (y : int64) =
  match op with
  | A_add -> Int64.add x y
  | A_sub -> Int64.sub x y
  | A_mul -> Int64.mul x y
  | A_div -> if y = 0L then raise (Value.division_by_zero ()) else Int64.div x y
  | A_mod -> if y = 0L then raise (Value.division_by_zero ()) else Int64.rem x y
  | A_shl -> Int64.shift_left x (Int64.to_int y land 63)
  | A_shr -> Int64.shift_right_logical x (Int64.to_int y land 63)
  | A_and -> Int64.logand x y
  | A_or -> Int64.logor x y
  | A_xor -> Int64.logxor x y
  | A_min -> if x <= y then x else y
  | A_max -> if x >= y then x else y

(* [iarith] storing its result into int-bank slot [d], wrapped to the
   width: the tier's closures use this form, since every arm ends in the
   store, no int64 crosses a join and nothing is boxed. *)
let[@inline always] iarith_set b d sh op (x : int64) (y : int64) =
  match op with
  | A_add -> ibank_set b d (wrap_sh sh (Int64.add x y))
  | A_sub -> ibank_set b d (wrap_sh sh (Int64.sub x y))
  | A_mul -> ibank_set b d (wrap_sh sh (Int64.mul x y))
  | A_div ->
      if y = 0L then raise (Value.division_by_zero ())
      else ibank_set b d (wrap_sh sh (Int64.div x y))
  | A_mod ->
      if y = 0L then raise (Value.division_by_zero ())
      else ibank_set b d (wrap_sh sh (Int64.rem x y))
  | A_shl -> ibank_set b d (wrap_sh sh (Int64.shift_left x (Int64.to_int y land 63)))
  | A_shr ->
      ibank_set b d (wrap_sh sh (Int64.shift_right_logical x (Int64.to_int y land 63)))
  | A_and -> ibank_set b d (wrap_sh sh (Int64.logand x y))
  | A_or -> ibank_set b d (wrap_sh sh (Int64.logor x y))
  | A_xor -> ibank_set b d (wrap_sh sh (Int64.logxor x y))
  | A_min -> ibank_set b d (wrap_sh sh (if x <= y then x else y))
  | A_max -> ibank_set b d (wrap_sh sh (if x >= y then x else y))

let[@inline always] icmp c (x : int64) (y : int64) =
  match c with
  | C_eq -> Int64.equal x y
  | C_lt -> x < y
  | C_gt -> x > y
  | C_leq -> x <= y
  | C_geq -> x >= y

(* Float.compare, not the native comparisons: NaN ordering must match the
   generic [P_double_cmp] path exactly. *)
let[@inline always] fcmp c (x : float) (y : float) = compare_by c (Float.compare x y)

let[@inline always] farith op (x : float) (y : float) =
  match op with
  | A_add -> x +. y
  | A_sub -> x -. y
  | A_mul -> x *. y
  | A_div -> if y = 0. then raise (Value.division_by_zero ()) else x /. y
  | _ -> fail "double arith"

(* ---- The dispatch loops ------------------------------------------------------------ *)

(* Three execution paths share one instruction semantics:
   - [exec_func_checked], the oracle: ordinary (bounds-checked) array
     accesses, names resolved per instruction.  It runs unverified
     programs, and any program — specialized code included — when the
     context asks for it ([force_checked]);
   - [exec_func_verified], for verified programs that were not
     specialized ([Host_api.compile ~specialize:false]): a copy of the
     checked loop whose register, code and globals accesses are unchecked
     ({!Verify} proved them in range);
   - the closure tier ([tier_*] below), for every verified and specialized
     program — the default.  At load each function becomes an array of
     closures, one per bytecode instruction, with operands, bank offsets,
     resolved primitive implementations, hook bodies, host-function ids
     and struct-slot caches bound in; running a function is a loop over
     [pc <- code.(pc) act].
   All three retire and count exactly one bytecode instruction per step
   ([instr_count], [cycles], the step budget and the obs op groups), so
   they are interchangeable under the differential tests. *)

let rec exec_func ctx (fidx : int) (args : Value.t list) : Value.t =
  if ctx.force_checked then exec_func_checked ctx fidx args
  else if ctx.program.specialized then tier_exec ctx fidx args
  else if ctx.program.verified then exec_func_verified ctx fidx args
  else exec_func_checked ctx fidx args

and exec_func_checked ctx (fidx : int) (args : Value.t list) : Value.t =
  let f = ctx.program.funcs.(fidx) in
  let slot = acquire_frame ctx fidx f in
  let regs =
    match slot with Some s -> s.a_regs | None -> Array.copy f.reg_defaults
  in
  let frame = { regs; pc = 0; tries = [] } in
  List.iteri (fun i v -> if i < f.nregs then frame.regs.(i) <- v) args;
  (* Register banks, for specialized programs: bounds-checked here, so the
     oracle also checks the slots {!Verify} vouched for. *)
  let ibank = activation_ibank slot f and fbank = activation_fbank slot f in
  let iget x = Bytes.get_int64_ne ibank (x lsl 3) in
  let iset d v = Bytes.set_int64_ne ibank (d lsl 3) v in
  let code = f.code in
  let result = ref Value.Null in
  let running = ref true in
  (* Metrics tally, allocated only when observability is on; flushed into
     the sharded counters once per activation, not per instruction. *)
  let obs =
    if Hilti_obs.Metrics.enabled () then Some (Array.make n_opgroups 0) else None
  in
  let instrs_at_entry = ctx.instr_count in
  (try
     while !running do
    let i = code.(frame.pc) in
    ctx.instr_count <- ctx.instr_count + 1;
    if ctx.instr_count >= ctx.step_kill then raise Step_budget_exceeded;
    ctx.cycles := !(ctx.cycles) + 1;
    (match obs with
    | Some ops ->
        let g = opgroup_of i in
        ops.(g) <- ops.(g) + 1
    | None -> ());
    let next = frame.pc + 1 in
    (try
       match i with
       | Const (dst, v) ->
           setreg frame dst v;
           frame.pc <- next
       | Mov (dst, src) ->
           setreg frame dst (reg frame src);
           frame.pc <- next
       | LoadGlobal (dst, slot) ->
           setreg frame dst (current_globals ctx).(slot);
           frame.pc <- next
       | StoreGlobal (slot, src) ->
           (current_globals ctx).(slot) <- reg frame src;
           frame.pc <- next
       | Jump pc -> frame.pc <- pc
       | Br (c, t, e) -> frame.pc <- (if Value.as_bool (reg frame c) then t else e)
       | Switch (v, default, cases) ->
           let value = reg frame v in
           let rec find k =
             if k >= Array.length cases then default
             else
               let cv, pc = cases.(k) in
               if Value.equal cv value then pc else find (k + 1)
           in
           frame.pc <- find 0
       | Call (callee, arg_regs, dst) ->
           let args = Array.to_list (Array.map (reg frame) arg_regs) in
           let r = exec_func ctx callee args in
           setreg frame dst r;
           frame.pc <- next
       | CallC (h, arg_regs, dst) ->
           if h < 0 || h >= Array.length ctx.host_slots then
             fail "host-function id %d out of range" h;
           let fn = ctx.host_slots.(h) in
           let args = Array.to_list (Array.map (reg frame) arg_regs) in
           setreg frame dst (fn ctx args);
           frame.pc <- next
       | Ret r ->
           result := (if r >= 0 then reg frame r else Value.Null);
           running := false
       | TryPush (handler, exc_reg) ->
           frame.tries <- (handler, exc_reg) :: frame.tries;
           frame.pc <- next
       | TryPop ->
           (match frame.tries with
           | _ :: rest -> frame.tries <- rest
           | [] -> ());
           frame.pc <- next
       | Throw r -> (
           match reg frame r with
           | Value.Exception e -> raise (Value.Hilti_error e)
           | v -> raise (Value.Hilti_error { ename = "Hilti::Exception"; earg = v }))
       | Yield ->
           (match Hilti_rt.Fiber.yield () with
           | () -> ()
           | exception Effect.Unhandled _ ->
               (* Suspending outside a fiber cannot park anywhere. *)
               raise (Value.would_block ()));
           frame.pc <- next
       | HookRun (name, arg_regs) ->
           let args = Array.to_list (Array.map (reg frame) arg_regs) in
           run_hook ctx name args;
           frame.pc <- next
       | Schedule (callee, arg_regs, tid_reg) ->
           let tid = Value.as_int (reg frame tid_reg) in
           let args =
             Array.to_list (Array.map (fun r -> Value.deep_copy (reg frame r)) arg_regs)
           in
           schedule_job ctx tid callee args;
           frame.pc <- next
       | Bind (callee, arg_regs, dst) ->
           let args = Array.to_list (Array.map (reg frame) arg_regs) in
           let name = ctx.program.funcs.(callee).name in
           setreg frame dst
             (Value.Callable
                {
                  description = name;
                  (* Resolve at invocation: the callable may fire later on a
                     different domain (e.g. from a migrated timer). *)
                  invoke = (fun () -> exec_func (exec_context ctx) callee args);
                });
           frame.pc <- next
       | Prim (p, arg_regs, dst) ->
           let args = Array.map (reg frame) arg_regs in
           setreg frame dst (guarded_prim ctx p args);
           frame.pc <- next
       | Nop -> frame.pc <- next
       (* ---- Int bank ---- *)
       | IConst_u (d, k) ->
           iset d k;
           frame.pc <- next
       | IMov_u (d, s) ->
           iset d (iget s);
           frame.pc <- next
       | UnboxI (d, s) ->
           (* Mirrors [Value.as_int] so failure counting matches the
              generic path. *)
           (match reg frame s with
           | Value.Int k -> iset d k
           | v -> raise (Value.type_error ("int: " ^ Value.to_string v)));
           frame.pc <- next
       | BoxI (d, s) ->
           setreg frame d (Value.Int (iget s));
           frame.pc <- next
       | IArith_u (op, w, d, x, y) ->
           iset d (wrap w (iarith op (iget x) (iget y)));
           frame.pc <- next
       | IArithK_u (op, w, d, x, k) ->
           iset d (wrap w (iarith op (iget x) k));
           frame.pc <- next
       | ICmp_u (c, d, x, y) ->
           setreg frame d (vbool (icmp c (iget x) (iget y)));
           frame.pc <- next
       | ICmpK_u (c, d, x, k) ->
           setreg frame d (vbool (icmp c (iget x) k));
           frame.pc <- next
       | IBrCmp_u (c, x, y, t, e) -> frame.pc <- (if icmp c (iget x) (iget y) then t else e)
       | IBrCmpK_u (c, x, k, t, e) -> frame.pc <- (if icmp c (iget x) k then t else e)
       | IIncrJ_u (w, d, k, t) ->
           iset d (wrap w (Int64.add (iget d) k));
           frame.pc <- t
       (* ---- Float bank ---- *)
       | FConst_u (d, k) ->
           fbank.(d) <- k;
           frame.pc <- next
       | FMov_u (d, s) ->
           fbank.(d) <- fbank.(s);
           frame.pc <- next
       | UnboxF (d, s) ->
           (* Mirrors [Value.as_double], including the int coercion. *)
           (match reg frame s with
           | Value.Double x -> fbank.(d) <- x
           | Value.Int k -> fbank.(d) <- Int64.to_float k
           | v -> raise (Value.type_error ("double: " ^ Value.to_string v)));
           frame.pc <- next
       | BoxF (d, s) ->
           setreg frame d (Value.Double fbank.(s));
           frame.pc <- next
       | FArith_u (op, d, x, y) ->
           fbank.(d) <- farith op fbank.(x) fbank.(y);
           frame.pc <- next
       | FCmp_u (c, d, x, y) ->
           setreg frame d (vbool (fcmp c fbank.(x) fbank.(y)));
           frame.pc <- next
       | FBrCmp_u (c, x, y, t, e) ->
           frame.pc <- (if fcmp c fbank.(x) fbank.(y) then t else e)
     with Value.Hilti_error e when frame.tries <> [] && e.Value.ename <> "Hilti::HookStop" ->
       let handler, exc_reg = List.hd frame.tries in
       frame.tries <- List.tl frame.tries;
       setreg frame exc_reg (Value.Exception e);
       frame.pc <- handler)
     done
   with e ->
     release_frame slot;
     raise e);
  release_frame slot;
  (match obs with
  | Some ops ->
      Array.iteri
        (fun g n -> if n > 0 then Hilti_obs.Metrics.add m_opgroup.(g) n)
        ops;
      if ops.(bridge_group) > 0 then
        Hilti_obs.Metrics.add m_regbank_transfers ops.(bridge_group);
      Hilti_obs.Metrics.observe m_func_instrs (ctx.instr_count - instrs_at_entry)
  | None -> ());
  !result

(* Keep in lockstep with [exec_func_checked]; only the array accesses the
   verifier discharged differ. *)
and exec_func_verified ctx (fidx : int) (args : Value.t list) : Value.t =
  let f = ctx.program.funcs.(fidx) in
  let slot = acquire_frame ctx fidx f in
  let regs =
    match slot with Some s -> s.a_regs | None -> Array.copy f.reg_defaults
  in
  let frame = { regs; pc = 0; tries = [] } in
  List.iteri (fun i v -> if i < f.nregs then frame.regs.(i) <- v) args;
  let code = f.code in
  let result = ref Value.Null in
  let running = ref true in
  let obs =
    if Hilti_obs.Metrics.enabled () then Some (Array.make n_opgroups 0) else None
  in
  let instrs_at_entry = ctx.instr_count in
  (try
     while !running do
    let i = Array.unsafe_get code frame.pc in
    ctx.instr_count <- ctx.instr_count + 1;
    if ctx.instr_count >= ctx.step_kill then raise Step_budget_exceeded;
    ctx.cycles := !(ctx.cycles) + 1;
    (match obs with
    | Some ops ->
        let g = opgroup_of i in
        ops.(g) <- ops.(g) + 1
    | None -> ());
    let next = frame.pc + 1 in
    (try
       match i with
       | Const (dst, v) ->
           usetreg frame dst v;
           frame.pc <- next
       | Mov (dst, src) ->
           usetreg frame dst (ureg frame src);
           frame.pc <- next
       | LoadGlobal (dst, slot) ->
           usetreg frame dst (Array.unsafe_get (current_globals ctx) slot);
           frame.pc <- next
       | StoreGlobal (slot, src) ->
           Array.unsafe_set (current_globals ctx) slot (ureg frame src);
           frame.pc <- next
       | Jump pc -> frame.pc <- pc
       | Br (c, t, e) -> frame.pc <- (if Value.as_bool (ureg frame c) then t else e)
       | Switch (v, default, cases) ->
           let value = ureg frame v in
           let rec find k =
             if k >= Array.length cases then default
             else
               let cv, pc = Array.unsafe_get cases k in
               if Value.equal cv value then pc else find (k + 1)
           in
           frame.pc <- find 0
       | Call (callee, arg_regs, dst) ->
           let args = Array.to_list (Array.map (ureg frame) arg_regs) in
           let r = exec_func_verified ctx callee args in
           usetreg frame dst r;
           frame.pc <- next
       | CallC (h, arg_regs, dst) ->
           let fn = Array.unsafe_get ctx.host_slots h in
           let args = Array.to_list (Array.map (ureg frame) arg_regs) in
           usetreg frame dst (fn ctx args);
           frame.pc <- next
       | Ret r ->
           result := (if r >= 0 then ureg frame r else Value.Null);
           running := false
       | TryPush (handler, exc_reg) ->
           frame.tries <- (handler, exc_reg) :: frame.tries;
           frame.pc <- next
       | TryPop ->
           (match frame.tries with
           | _ :: rest -> frame.tries <- rest
           | [] -> ());
           frame.pc <- next
       | Throw r -> (
           match ureg frame r with
           | Value.Exception e -> raise (Value.Hilti_error e)
           | v -> raise (Value.Hilti_error { ename = "Hilti::Exception"; earg = v }))
       | Yield ->
           (match Hilti_rt.Fiber.yield () with
           | () -> ()
           | exception Effect.Unhandled _ ->
               raise (Value.would_block ()));
           frame.pc <- next
       | HookRun (name, arg_regs) ->
           let args = Array.to_list (Array.map (ureg frame) arg_regs) in
           run_hook ctx name args;
           frame.pc <- next
       | Schedule (callee, arg_regs, tid_reg) ->
           let tid = Value.as_int (ureg frame tid_reg) in
           let args =
             Array.to_list (Array.map (fun r -> Value.deep_copy (ureg frame r)) arg_regs)
           in
           schedule_job ctx tid callee args;
           frame.pc <- next
       | Bind (callee, arg_regs, dst) ->
           let args = Array.to_list (Array.map (ureg frame) arg_regs) in
           let name = ctx.program.funcs.(callee).name in
           usetreg frame dst
             (Value.Callable
                {
                  description = name;
                  invoke = (fun () -> exec_func (exec_context ctx) callee args);
                });
           frame.pc <- next
       | Prim (p, arg_regs, dst) ->
           let args = Array.map (ureg frame) arg_regs in
           usetreg frame dst (guarded_prim ctx p args);
           frame.pc <- next
       | Nop -> frame.pc <- next
       | IConst_u _ | IMov_u _ | UnboxI _ | BoxI _ | IArith_u _ | IArithK_u _
       | ICmp_u _ | ICmpK_u _ | IBrCmp_u _ | IBrCmpK_u _ | IIncrJ_u _
       | FConst_u _ | FMov_u _ | UnboxF _ | BoxF _ | FArith_u _ | FCmp_u _
       | FBrCmp_u _ ->
           (* Specialized programs run on the closure tier (or the
              checked oracle); a bank opcode reaching this loop is a
              dispatch bug, not user error. *)
           fail "specialized opcode in %s outside specialized dispatch" f.name
     with Value.Hilti_error e when frame.tries <> [] && e.Value.ename <> "Hilti::HookStop" ->
       let handler, exc_reg = List.hd frame.tries in
       frame.tries <- List.tl frame.tries;
       usetreg frame exc_reg (Value.Exception e);
       frame.pc <- handler)
     done
   with e ->
     release_frame slot;
     raise e);
  release_frame slot;
  (match obs with
  | Some ops ->
      Array.iteri
        (fun g n -> if n > 0 then Hilti_obs.Metrics.add m_opgroup.(g) n)
        ops;
      Hilti_obs.Metrics.observe m_func_instrs (ctx.instr_count - instrs_at_entry)
  | None -> ());
  !result

and run_hook ctx name args = run_hook_bodies ctx (hook_bodies ctx.program name) args

(** Run resolved hook bodies (see {!hook_bodies}) in order; a body raising
    [Hilti::HookStop] ends the hook. *)
and run_hook_bodies ctx (bodies : int array) args =
  try Array.iter (fun idx -> ignore (exec_func ctx idx args)) bodies
  with Value.Hilti_error e when e.Value.ename = "Hilti::HookStop" -> ()

(** Schedule bytecode function [callee] on virtual thread [tid]
    ([thread.schedule]).  The caller must have deep-copied [args] already.
    The job resolves its execution context when it runs: under [Hilti_par]
    that is the clone owned by whichever domain the thread landed on. *)
and schedule_job ctx tid callee (args : Value.t list) =
  let label = ctx.program.funcs.(callee).name in
  Hilti_rt.Scheduler.schedule ctx.scheduler tid ~label (fun () ->
      let ctx = exec_context ctx in
      let saved = ctx.current_thread in
      ctx.current_thread <- tid;
      Fun.protect
        ~finally:(fun () -> ctx.current_thread <- saved)
        (fun () -> ignore (exec_func ctx callee args)))

(* ---- The closure tier ------------------------------------------------------------- *)

(* The translation of a specialized program, built on first use ({!load_tier}
   builds it at load) and shared by the root context and its domain
   clones. *)
and tier_of ctx =
  match Atomic.get ctx.tier with
  | Some t -> t
  | None ->
      (* Racing domains each translate; one translation wins, and the
         loser's (equivalent) closures are dropped. *)
      ignore (Atomic.compare_and_set ctx.tier None (Some (translate ctx.program)));
      Option.get (Atomic.get ctx.tier)

(* Entry with an argument list: host calls, hooks run by the host,
   scheduled jobs and bound callables. *)
and tier_exec ctx (fidx : int) (args : Value.t list) : Value.t =
  let tf = (tier_of ctx).(fidx) in
  let f = tf.t_func in
  let slot = acquire_frame ctx fidx f in
  let regs = match slot with Some s -> s.a_regs | None -> Array.copy f.reg_defaults in
  List.iteri (fun i v -> if i < f.nregs then regs.(i) <- v) args;
  tier_run ctx tf slot regs

(* Entry from a [Call] or [HookRun] closure: arguments are copied from the
   caller's registers straight into the callee's frame. *)
and tier_call ctx (tf : tfunc) (src : Value.t array) (ar : int array) : Value.t =
  let f = tf.t_func in
  let slot = acquire_frame ctx tf.t_idx f in
  let regs = match slot with Some s -> s.a_regs | None -> Array.copy f.reg_defaults in
  let n = if Array.length ar < f.nregs then Array.length ar else f.nregs in
  for i = 0 to n - 1 do
    Array.unsafe_set regs i (get src (Array.unsafe_get ar i))
  done;
  tier_run ctx tf slot regs

and tier_run ctx (tf : tfunc) slot regs : Value.t =
  let act =
    { actx = ctx; aregs = regs; aibank = activation_ibank slot tf.t_func;
      afbank = activation_fbank slot tf.t_func; atries = []; aresult = Value.Null }
  in
  match
    if Hilti_obs.Metrics.enabled () then tier_run_obs ctx tf act
    else tier_loop ctx tf.t_code act 0
  with
  | () ->
      release_frame slot;
      act.aresult
  | exception e ->
      release_frame slot;
      raise e

(* The dispatch loop proper.  A HILTI exception unwinds to here and, when
   the activation has a handler, resumes at it; the loop state is just
   the pc, so one trap per handler entry replaces the per-instruction
   trap of the other loops. *)
and tier_loop ctx code act pc0 =
  match
    let pc = ref pc0 in
    while !pc >= 0 do
      let n = ctx.instr_count + 1 in
      ctx.instr_count <- n;
      if n >= ctx.step_kill then raise Step_budget_exceeded;
      let c = ctx.cycles in
      c := !c + 1;
      pc := (Array.unsafe_get code !pc) act
    done
  with
  | () -> ()
  | exception Value.Hilti_error e
    when act.atries <> [] && e.Value.ename <> "Hilti::HookStop" ->
      tier_loop ctx code act (tier_catch act e)

and tier_catch act e =
  match act.atries with
  | (handler, exc_reg) :: rest ->
      act.atries <- rest;
      set act.aregs exc_reg (Value.Exception e);
      handler
  | [] -> assert false

(* The same loop with the per-activation op-group tally, selected when
   metrics are enabled and flushed on normal return, like the other
   loops. *)
and tier_run_obs ctx tf act =
  let ops = Array.make n_opgroups 0 in
  let instrs_at_entry = ctx.instr_count in
  tier_loop_obs ctx tf.t_code tf.t_groups ops act 0;
  Array.iteri (fun g n -> if n > 0 then Hilti_obs.Metrics.add m_opgroup.(g) n) ops;
  if ops.(bridge_group) > 0 then
    Hilti_obs.Metrics.add m_regbank_transfers ops.(bridge_group);
  Hilti_obs.Metrics.observe m_func_instrs (ctx.instr_count - instrs_at_entry)

and tier_loop_obs ctx code groups ops act pc0 =
  match
    let pc = ref pc0 in
    while !pc >= 0 do
      let n = ctx.instr_count + 1 in
      ctx.instr_count <- n;
      if n >= ctx.step_kill then raise Step_budget_exceeded;
      let c = ctx.cycles in
      c := !c + 1;
      let g = Array.unsafe_get groups !pc in
      Array.unsafe_set ops g (Array.unsafe_get ops g + 1);
      pc := (Array.unsafe_get code !pc) act
    done
  with
  | () -> ()
  | exception Value.Hilti_error e
    when act.atries <> [] && e.Value.ename <> "Hilti::HookStop" ->
      tier_loop_obs ctx code groups ops act (tier_catch act e)

(* ---- Translation ---------------------------------------------------------------- *)

(* Closures capture only immutable data — register and bank indices,
   constants, resolved primitive implementations, callee and body
   indices (into [tfuncs], filled before anything runs) — plus their
   struct-slot hints.  The context, frame and banks arrive through the
   activation, so one translation serves every domain clone. *)
and translate (p : Bytecode.program) : tfunc array =
  let n = Array.length p.funcs in
  if n = 0 then [||]
  else begin
    let dummy = { t_idx = -1; t_func = p.funcs.(0); t_code = [||]; t_groups = [||] } in
    let tfuncs = Array.make n dummy in
    Array.iteri
      (fun i (f : Bytecode.func) ->
        tfuncs.(i) <-
          {
            t_idx = i;
            t_func = f;
            t_code = Array.mapi (translate_instr p tfuncs) f.code;
            t_groups = Array.map opgroup_of f.code;
          })
      p.funcs;
    tfuncs
  end

and translate_instr p tfuncs pc (i : Bytecode.instr) : act -> int =
  let next = pc + 1 in
  match i with
  | Const (d, v) ->
      fun a ->
        set a.aregs d v;
        next
  | Mov (d, s) ->
      fun a ->
        let r = a.aregs in
        set r d (get r s);
        next
  | LoadGlobal (d, slot) ->
      fun a ->
        set a.aregs d (Array.unsafe_get (current_globals a.actx) slot);
        next
  | StoreGlobal (slot, s) ->
      fun a ->
        Array.unsafe_set (current_globals a.actx) slot (get a.aregs s);
        next
  | Jump t -> fun _ -> t
  | Br (c, t, e) -> fun a -> if Value.as_bool (get a.aregs c) then t else e
  | Switch (v, default, cases) ->
      fun a ->
        let value = get a.aregs v in
        let rec find k =
          if k >= Array.length cases then default
          else
            let cv, pc = Array.unsafe_get cases k in
            if Value.equal cv value then pc else find (k + 1)
        in
        find 0
  | Call (callee, ar, d) ->
      fun a ->
        let r = a.aregs in
        set r d (tier_call a.actx (Array.unsafe_get tfuncs callee) r ar);
        next
  | CallC (h, ar, d) ->
      fun a ->
        let ctx = a.actx and r = a.aregs in
        let fn = Array.unsafe_get ctx.host_slots h in
        set r d (fn ctx (args_list r ar));
        next
  | Ret r when r >= 0 ->
      fun a ->
        a.aresult <- get a.aregs r;
        -1
  | Ret _ -> fun _ -> -1
  | TryPush (handler, exc_reg) ->
      fun a ->
        a.atries <- (handler, exc_reg) :: a.atries;
        next
  | TryPop ->
      fun a ->
        (match a.atries with _ :: rest -> a.atries <- rest | [] -> ());
        next
  | Throw r -> (
      fun a ->
        match get a.aregs r with
        | Value.Exception e -> raise (Value.Hilti_error e)
        | v -> raise (Value.Hilti_error { ename = "Hilti::Exception"; earg = v }))
  | Yield ->
      fun _ ->
        suspend ();
        next
  | HookRun (name, ar) ->
      (* Bodies in priority order, bound now; a hook without bodies only
         retires its instruction. *)
      let bodies = hook_bodies p name in
      if Array.length bodies = 0 then fun _ -> next
      else
        fun a ->
          let ctx = a.actx and r = a.aregs in
          (try
             for k = 0 to Array.length bodies - 1 do
               ignore (tier_call ctx (Array.unsafe_get tfuncs (Array.unsafe_get bodies k)) r ar)
             done
           with Value.Hilti_error e when e.Value.ename = "Hilti::HookStop" -> ());
          next
  | Schedule (callee, ar, tid_reg) ->
      fun a ->
        let r = a.aregs in
        let tid = Value.as_int (get r tid_reg) in
        let args = Array.to_list (Array.map (fun x -> Value.deep_copy (get r x)) ar) in
        schedule_job a.actx tid callee args;
        next
  | Bind (callee, ar, d) ->
      let name = p.funcs.(callee).name in
      fun a ->
        let ctx = a.actx and r = a.aregs in
        let args = args_list r ar in
        set r d
          (Value.Callable
             {
               description = name;
               (* Resolve at invocation: the callable may fire later on a
                  different domain (e.g. from a migrated timer). *)
               invoke = (fun () -> exec_func (exec_context ctx) callee args);
             });
        next
  | Prim (pr, ar, d) -> translate_prim p pr ar d next
  | Nop -> fun _ -> next
  (* ---- Int bank: slots pre-scaled to byte offsets ---- *)
  | IConst_u (d, k) ->
      let d = d lsl 3 in
      fun a ->
        ibank_set a.aibank d k;
        next
  | IMov_u (d, s) ->
      let d = d lsl 3 and s = s lsl 3 in
      fun a ->
        let b = a.aibank in
        ibank_set b d (ibank_get b s);
        next
  | UnboxI (d, s) ->
      let d = d lsl 3 in
      fun a ->
        (* Mirrors [Value.as_int] so failure counting matches the generic
           path. *)
        (match get a.aregs s with
        | Value.Int k -> ibank_set a.aibank d k
        | v -> raise (Value.type_error ("int: " ^ Value.to_string v)));
        next
  | BoxI (d, s) ->
      let s = s lsl 3 in
      fun a ->
        set a.aregs d (Value.Int (ibank_get a.aibank s));
        next
  | IArith_u (op, w, d, x, y) ->
      let sh = if w >= 64 then 0 else 64 - w in
      let d = d lsl 3 and x = x lsl 3 and y = y lsl 3 in
      fun a ->
        let b = a.aibank in
        iarith_set b d sh op (ibank_get b x) (ibank_get b y);
        next
  | IArithK_u (op, w, d, x, k) ->
      let sh = if w >= 64 then 0 else 64 - w in
      let d = d lsl 3 and x = x lsl 3 in
      fun a ->
        let b = a.aibank in
        iarith_set b d sh op (ibank_get b x) k;
        next
  | ICmp_u (c, d, x, y) ->
      let x = x lsl 3 and y = y lsl 3 in
      fun a ->
        let b = a.aibank in
        set a.aregs d (vbool (icmp c (ibank_get b x) (ibank_get b y)));
        next
  | ICmpK_u (c, d, x, k) ->
      let x = x lsl 3 in
      fun a ->
        set a.aregs d (vbool (icmp c (ibank_get a.aibank x) k));
        next
  | IBrCmp_u (c, x, y, t, e) ->
      let x = x lsl 3 and y = y lsl 3 in
      fun a ->
        let b = a.aibank in
        if icmp c (ibank_get b x) (ibank_get b y) then t else e
  | IBrCmpK_u (c, x, k, t, e) ->
      let x = x lsl 3 in
      fun a -> if icmp c (ibank_get a.aibank x) k then t else e
  | IIncrJ_u (w, d, k, t) ->
      let sh = if w >= 64 then 0 else 64 - w in
      let d = d lsl 3 in
      fun a ->
        let b = a.aibank in
        ibank_set b d (wrap_sh sh (Int64.add (ibank_get b d) k));
        t
  (* ---- Float bank ---- *)
  | FConst_u (d, k) ->
      fun a ->
        Array.unsafe_set a.afbank d k;
        next
  | FMov_u (d, s) ->
      fun a ->
        let b = a.afbank in
        Array.unsafe_set b d (Array.unsafe_get b s);
        next
  | UnboxF (d, s) ->
      fun a ->
        (* Mirrors [Value.as_double], including the int coercion. *)
        (match get a.aregs s with
        | Value.Double x -> Array.unsafe_set a.afbank d x
        | Value.Int k -> Array.unsafe_set a.afbank d (Int64.to_float k)
        | v -> raise (Value.type_error ("double: " ^ Value.to_string v)));
        next
  | BoxF (d, s) ->
      fun a ->
        set a.aregs d (Value.Double (Array.unsafe_get a.afbank s));
        next
  | FArith_u (op, d, x, y) ->
      fun a ->
        let b = a.afbank in
        Array.unsafe_set b d (farith op (Array.unsafe_get b x) (Array.unsafe_get b y));
        next
  | FCmp_u (c, d, x, y) ->
      fun a ->
        let b = a.afbank in
        set a.aregs d (vbool (fcmp c (Array.unsafe_get b x) (Array.unsafe_get b y)));
        next
  | FBrCmp_u (c, x, y, t, e) ->
      fun a ->
        let b = a.afbank in
        if fcmp c (Array.unsafe_get b x) (Array.unsafe_get b y) then t else e

(* Primitives resolved to their implementation.  Each closure reads its
   operands straight from the registers, in the order [exec_prim] does,
   and keeps its failure behaviour: the substrate mapping wraps every
   implementation that can raise a substrate exception.  Operand counts
   other than the primitive's own, and every primitive not listed, take
   the generic path through [exec_prim]. *)
and translate_prim p pr (ar : int array) d next : act -> int =
  let open Hilti_types in
  let arg k = if k < Array.length ar then ar.(k) else -1 in
  let x = arg 0 and y = arg 1 and z = arg 2 in
  match (pr, Array.length ar) with
  | (P_equal | P_tuple_eq | P_enum_eq | P_bitset_eq), 2 ->
      fun a ->
        let r = a.aregs in
        set r d (vbool (Value.equal (get r x) (get r y)));
        next
  | P_make_tuple, _ ->
      fun a ->
        let r = a.aregs in
        set r d (Value.Tuple (args_array r ar));
        next
  | P_new (New_struct (sname, fields)), _ ->
      let names = Array.of_list fields in
      fun a ->
        set a.aregs d
          (Value.Struct { Value.sname; sfields = Array.map (fun n -> (n, ref None)) names });
        next
  | P_new New_list, _ ->
      fun a ->
        set a.aregs d (Value.List (Deque.create ()));
        next
  | P_new New_bytes, _ ->
      fun a ->
        set a.aregs d (Value.Bytes (Hbytes.create ()));
        next
  | P_bool_and, 2 ->
      fun a ->
        let r = a.aregs in
        set r d (vbool (Value.as_bool (get r x) && Value.as_bool (get r y)));
        next
  | P_bool_or, 2 ->
      fun a ->
        let r = a.aregs in
        set r d (vbool (Value.as_bool (get r x) || Value.as_bool (get r y)));
        next
  | P_bool_not, 1 ->
      fun a ->
        let r = a.aregs in
        set r d (vbool (not (Value.as_bool (get r x))));
        next
  | P_tuple_get i, 1 ->
      fun a ->
        let r = a.aregs in
        let t = Value.as_tuple (get r x) in
        set r d
          (if i < 0 || i >= Array.length t then raise (Value.index_error ())
           else Array.unsafe_get t i);
        next
  | P_struct (ST_get f), 1 ->
      let c = { hint = 0 } in
      fun a ->
        let r = a.aregs in
        let s = Value.as_struct (get r x) in
        set r d (match !(cached_field c f s) with Some v -> v | None -> raise (Value.unset_field f));
        next
  | P_struct (ST_get_default f), 2 ->
      let c = { hint = 0 } in
      fun a ->
        let r = a.aregs in
        let s = Value.as_struct (get r x) in
        set r d (match !(cached_field c f s) with Some v -> v | None -> get r y);
        next
  | P_struct (ST_set f), 2 ->
      let c = { hint = 0 } in
      fun a ->
        let r = a.aregs in
        let s = Value.as_struct (get r x) in
        cached_field c f s := Some (get r y);
        set r d Value.Null;
        next
  | P_struct (ST_unset f), 1 ->
      let c = { hint = 0 } in
      fun a ->
        let r = a.aregs in
        let s = Value.as_struct (get r x) in
        cached_field c f s := None;
        set r d Value.Null;
        next
  | P_struct (ST_is_set f), 1 ->
      let c = { hint = 0 } in
      fun a ->
        let r = a.aregs in
        let s = Value.as_struct (get r x) in
        set r d (vbool (!(cached_field c f s) <> None));
        next
  | P_bytes B_length, 1 ->
      fun a ->
        let r = a.aregs in
        set r d (Value.Int (Int64.of_int (Hbytes.length (Value.as_bytes (get r x)))));
        next
  | P_bytes B_append, 2 ->
      fun a ->
        let r = a.aregs in
        (try
           let b = Value.as_bytes (get r x) in
           match get r y with
           | Value.Bytes src -> Hbytes.append b (Hbytes.to_string src)
           | Value.String s -> Hbytes.append b s
           | v -> raise (Value.type_error ("bytes.append: " ^ Value.to_string v))
         with e -> raise (substrate_exn e));
        set r d Value.Null;
        next
  | P_bytes B_read, 2 ->
      fun a ->
        let r = a.aregs in
        set r d
          (try
             let it = Value.as_bytes_iter (get r x) and n = Value.as_int_i (get r y) in
             if n < 0 then raise (Value.value_error "bytes.read: negative length");
             bytes_read it n
           with e -> raise (substrate_exn e));
        next
  | P_bytes ((B_unpack_uint | B_unpack_sint) as op), 3 ->
      let signed = op = B_unpack_sint in
      fun a ->
        let r = a.aregs in
        set r d
          (try
             let it = Value.as_bytes_iter (get r x) in
             let width = Value.as_int_i (get r y) in
             let order = if Value.as_bool (get r z) then Hbytes.Big else Hbytes.Little in
             bytes_unpack ~signed it ~width ~order
           with e -> raise (substrate_exn e));
        next
  | P_enum_from_int name, 1 ->
      (* The label set is bound now; [exec_prim] looks it up per call. *)
      let labels =
        match Hashtbl.find_opt p.types name with
        | Some (Module_ir.Enum_decl labels) -> List.map snd labels
        | _ -> []
      in
      fun a ->
        let r = a.aregs in
        let v = Value.as_int_i (get r x) in
        set r d (Value.Enum (name, v, not (List.mem v labels)));
        next
  | _ ->
      fun a ->
        let r = a.aregs in
        set r d (guarded_prim a.actx pr (args_array r ar));
        next

(** Translate a specialized program to the closure tier now, so the cost
    falls in set-up rather than in the first call (a no-op otherwise). *)
let load_tier ctx = if ctx.program.specialized then ignore (tier_of ctx)

(** Call a HILTI function by name (the generated C-stub entry point).
    Runs on the current domain's execution context. *)
let call ctx name args =
  let ctx = exec_context ctx in
  match Bytecode.find_func ctx.program name with
  | Some idx -> exec_func ctx idx args
  | None -> fail "unknown function %s" name

(** Run the scheduler until all queued virtual-thread jobs are drained. *)
let run_scheduler ctx = Hilti_rt.Scheduler.run ctx.scheduler

(** Advance the global notion of time on all virtual threads. *)
let advance_time ctx time = Hilti_rt.Scheduler.advance_time ctx.scheduler time
