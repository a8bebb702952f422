(** Lowering: HILTI IR -> register bytecode.

    Performs, at compile time, everything the execution loop should not do
    by name: variable-to-register allocation, block-label resolution,
    constant materialization (including enum labels and bitset masks
    resolved against their declarations), struct/overlay layout lookup, and
    the global (thread-local) variable array layout that HILTI's custom
    linker computes across compilation units (§5 "Linker"). *)

open Bytecode

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Builtin declarations every program sees (the "import Hilti" prelude). *)
let builtin_enums =
  [ ("Hilti::AddrFamily", Module_ir.Enum_decl [ ("IPv4", 4); ("IPv6", 6) ]);
    ("Hilti::Protocol", Module_ir.Enum_decl [ ("TCP", 1); ("UDP", 2); ("ICMP", 3) ]);
    ("Hilti::ExpireStrategy",
     Module_ir.Enum_decl [ ("Create", 0); ("Access", 1); ("Write", 2) ]) ]

(* Typed default values: HILTI variables are defined before first use. *)
let rec default_value (t : Htype.t) : Value.t =
  match t with
  | Htype.Bool -> Value.Bool false
  | Htype.Int _ -> Value.Int 0L
  | Htype.Double -> Value.Double 0.0
  | Htype.String -> Value.String ""
  | Htype.Time -> Value.Time Hilti_types.Time_ns.epoch
  | Htype.Interval -> Value.Interval Hilti_types.Interval_ns.zero
  | Htype.Addr -> Value.Addr (Hilti_types.Addr.of_ipv4_octets 0 0 0 0)
  | Htype.Port -> Value.Port (Hilti_types.Port.tcp 0)
  | Htype.Net ->
      Value.Net (Hilti_types.Network.make (Hilti_types.Addr.of_ipv4_octets 0 0 0 0) 0)
  | Htype.Enum n -> Value.Enum (n, 0, true)
  | Htype.Bitset n -> Value.Bitset (n, 0L)
  | Htype.Tuple ts -> Value.Tuple (Array.of_list (List.map default_value ts))
  | _ -> Value.Null

(* ---- Constants -------------------------------------------------------------- *)

let rec value_of_constant types (c : Constant.t) : Value.t =
  match c with
  | Constant.Bool b -> Value.Bool b
  | Constant.Int (v, _) -> Value.Int v
  | Constant.Double d -> Value.Double d
  | Constant.String s -> Value.String s
  | Constant.Bytes s ->
      let b = Hilti_types.Hbytes.of_string s in
      Hilti_types.Hbytes.freeze b;
      Value.Bytes b
  | Constant.Addr a -> Value.Addr a
  | Constant.Port p -> Value.Port p
  | Constant.Net n -> Value.Net n
  | Constant.Time t -> Value.Time t
  | Constant.Interval i -> Value.Interval i
  | Constant.Enum_label (tn, lbl) -> (
      match Hashtbl.find_opt types tn with
      | Some (Module_ir.Enum_decl labels) -> (
          match List.assoc_opt lbl labels with
          | Some v -> Value.Enum (tn, v, false)
          | None -> fail "enum %s has no label %s" tn lbl)
      | _ -> fail "unknown enum type %s" tn)
  | Constant.Bitset_labels (tn, ls) -> (
      match Hashtbl.find_opt types tn with
      | Some (Module_ir.Bitset_decl labels) ->
          let mask =
            List.fold_left
              (fun acc l ->
                match List.assoc_opt l labels with
                | Some bit -> Int64.logor acc (Int64.shift_left 1L bit)
                | None -> fail "bitset %s has no label %s" tn l)
              0L ls
          in
          Value.Bitset (tn, mask)
      | _ -> fail "unknown bitset type %s" tn)
  | Constant.Tuple cs ->
      Value.Tuple (Array.of_list (List.map (value_of_constant types) cs))
  | Constant.Null -> Value.Null
  | Constant.Unset -> Value.Null

(* ---- Pre-instructions with symbolic labels ------------------------------------ *)

type pre =
  | P of Bytecode.instr
  | PJump of string
  | PBr of int * string * string
  | PSwitch of int * string * (Value.t * string) array
  | PTryPush of string * int

(* ---- Function lowering ---------------------------------------------------------- *)

type fctx = {
  types : (string, Module_ir.type_decl) Hashtbl.t;
  var_types : (string, Htype.t) Hashtbl.t;
  regs : (string, int) Hashtbl.t;
  mutable nregs : int;
  mutable out : pre list;  (* reversed *)
  mutable nout : int;      (* length of [out]; kept so block-offset
                              recording is O(1) per block instead of a
                              List.length walk (quadratic in program size) *)
  global_index : (string, int) Hashtbl.t;
  fname_index : (string, int) Hashtbl.t;  (* resolved HILTI functions *)
  c_funcs : (string, unit) Hashtbl.t;     (* declared host functions *)
  host_ids : (string, int) Hashtbl.t;
      (* host-function name -> id, shared by every function of the module:
         ids are numbered in order of first call *)
  (* Constant pool: each distinct constant lives in a dedicated register
     initialized with the frame (no per-use Const instructions). *)
  const_regs : (Constant.t, int) Hashtbl.t;
  mutable const_inits : (int * Value.t) list;
}

let emit ctx p =
  ctx.out <- p :: ctx.out;
  ctx.nout <- ctx.nout + 1

let fresh ctx =
  let r = ctx.nregs in
  ctx.nregs <- r + 1;
  r

let reg_of_var ctx name =
  match Hashtbl.find_opt ctx.regs name with
  | Some r -> r
  | None -> fail "unknown variable %s" name

let var_type ctx name = Hashtbl.find_opt ctx.var_types name

(* Lower an operand to a register holding its value. *)
let rec lower_operand ctx (op : Instr.operand) : int =
  match op with
  | Instr.Const c -> (
      match Hashtbl.find_opt ctx.const_regs c with
      | Some r -> r
      | None ->
          let r = fresh ctx in
          Hashtbl.add ctx.const_regs c r;
          ctx.const_inits <- (r, value_of_constant ctx.types c) :: ctx.const_inits;
          r)
  | Instr.Local n -> (
      match Hashtbl.find_opt ctx.regs n with
      | Some r -> r
      | None -> (
          (* Tolerate module-level names written without the Global marker. *)
          match Hashtbl.find_opt ctx.global_index n with
          | Some slot ->
              let r = fresh ctx in
              emit ctx (P (LoadGlobal (r, slot)));
              r
          | None -> fail "unknown variable %s" n))
  | Instr.Global n -> (
      match Hashtbl.find_opt ctx.global_index n with
      | Some slot ->
          let r = fresh ctx in
          emit ctx (P (LoadGlobal (r, slot)));
          r
      | None -> fail "unknown global %s" n)
  | Instr.Tuple_op ops ->
      let args = Array.of_list (List.map (lower_operand ctx) ops) in
      let r = fresh ctx in
      emit ctx (P (Prim (P_make_tuple, args, r)));
      r
  | Instr.Member m ->
      (* A bare member used as a value is its name as a string. *)
      let r = fresh ctx in
      emit ctx (P (Const (r, Value.String m)));
      r
  | Instr.Fname f ->
      let r = fresh ctx in
      emit ctx (P (Const (r, Value.Caddr f)));
      r
  | Instr.Label l -> fail "label %s used as a value" l
  | Instr.Type_op t -> fail "type %s used as a value" (Htype.to_string t)

(* Static type of an operand when known. *)
let operand_htype ctx (op : Instr.operand) : Htype.t option =
  match op with
  | Instr.Const c -> Some (Constant.typ c)
  | Instr.Local n | Instr.Global n -> var_type ctx n
  | _ -> None

let int_width ctx op =
  match operand_htype ctx op with
  | Some (Htype.Int w) -> w
  | Some (Htype.Ref (Htype.Int w)) -> w
  | _ -> 64

(* Store the instruction result into its target (local register or global
   slot). *)
let store_target ctx (target : string option) (compute : int -> unit) : unit =
  match target with
  | None ->
      (* Result discarded: still run for effects into a scratch reg. *)
      compute (-1)
  | Some name -> (
      match Hashtbl.find_opt ctx.regs name with
      | Some r -> compute r
      | None -> (
          match Hashtbl.find_opt ctx.global_index name with
          | Some slot ->
              let r = fresh ctx in
              compute r;
              emit ctx (P (StoreGlobal (slot, r)))
          | None -> fail "unknown target %s" name))

(* Helpers shared by families of mnemonics. *)
let int_arith_of = function
  | "add" -> A_add | "sub" -> A_sub | "mul" -> A_mul | "div" -> A_div
  | "mod" -> A_mod | "shl" -> A_shl | "shr" -> A_shr | "and" -> A_and
  | "or" -> A_or | "xor" -> A_xor | "min" -> A_min | "max" -> A_max
  | op -> fail "unknown arith op %s" op

let cmp_of = function
  | "eq" -> C_eq | "lt" -> C_lt | "gt" -> C_gt | "leq" -> C_leq | "geq" -> C_geq
  | op -> fail "unknown comparison %s" op

let struct_field_names ctx tname =
  match Hashtbl.find_opt ctx.types tname with
  | Some (Module_ir.Struct_decl fields) -> List.map fst fields
  | _ -> fail "unknown struct type %s" tname

let classifier_nfields ctx (rule_ty : Htype.t) =
  match rule_ty with
  | Htype.Struct n -> List.length (struct_field_names ctx n)
  | Htype.Tuple ts -> List.length ts
  | Htype.Any -> fail "classifier rule type must be concrete"
  | _ -> 1

let overlay_spec ctx tname fname : overlay_spec =
  match Hashtbl.find_opt ctx.types tname with
  | Some (Module_ir.Overlay_decl fields) -> (
      match List.find_opt (fun f -> f.Module_ir.of_name = fname) fields with
      | Some f ->
          {
            ov_offset = f.Module_ir.of_offset;
            ov_fmt = f.Module_ir.of_fmt;
            ov_bits = f.Module_ir.of_bits;
            ov_result = f.Module_ir.of_type;
          }
      | None -> fail "overlay %s has no field %s" tname fname)
  | _ -> fail "unknown overlay type %s" tname

let overlay_size ctx tname =
  match Hashtbl.find_opt ctx.types tname with
  | Some (Module_ir.Overlay_decl fields) ->
      List.fold_left
        (fun acc f ->
          let w =
            match f.Module_ir.of_fmt with
            | Module_ir.U_uint (w, _) | Module_ir.U_sint (w, _) -> w
            | Module_ir.U_ipv4 -> 4
            | Module_ir.U_bytes n -> n
          in
          max acc (f.Module_ir.of_offset + w))
        0 fields
  | _ -> fail "unknown overlay type %s" tname

let bitset_mask ctx op =
  match op with
  | Instr.Const (Constant.Bitset_labels (tn, ls)) -> (
      match Hashtbl.find_opt ctx.types tn with
      | Some (Module_ir.Bitset_decl labels) ->
          List.fold_left
            (fun acc l ->
              match List.assoc_opt l labels with
              | Some bit -> Int64.logor acc (Int64.shift_left 1L bit)
              | None -> fail "bitset %s has no label %s" tn l)
            0L ls
      | _ -> fail "unknown bitset %s" tn)
  | _ -> fail "bitset operation needs constant labels"

(* Lower one IR instruction. *)
let lower_instr ctx (i : Instr.t) =
  let m = i.Instr.mnemonic in
  let ops = i.Instr.operands in
  let op n = List.nth ops n in
  let prim ?(args = ops) p =
    let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
    store_target ctx i.Instr.target (fun dst -> emit ctx (P (Prim (p, arg_regs, dst))))
  in
  let label_of = function
    | Instr.Label l -> l
    | o -> fail "%s: expected label, got %s" m (Instr.operand_to_string o)
  in
  let member_of = function
    | Instr.Member f -> f
    | Instr.Const (Constant.String f) -> f
    | o -> fail "%s: expected member, got %s" m (Instr.operand_to_string o)
  in
  let fname_of = function
    | Instr.Fname f -> f
    | o -> fail "%s: expected function, got %s" m (Instr.operand_to_string o)
  in
  let group, sub =
    if List.mem m Instr.flow_mnemonics then ("flow", m)
    else
      match String.index_opt m '.' with
      | Some d ->
          (String.sub m 0 d, String.sub m (d + 1) (String.length m - d - 1))
      | None -> ("flow", m)
  in
  let call_target f args_op dst_wanted =
    let args =
      match args_op with
      | Some (Instr.Tuple_op l) -> l
      | Some o -> [ o ]
      | None -> []
    in
    let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
    match Hashtbl.find_opt ctx.fname_index f with
    | Some idx ->
        store_target ctx dst_wanted (fun dst -> emit ctx (P (Call (idx, arg_regs, dst))))
    | None ->
        (* Unknown at link time: a host-application ("C") function,
           called through its id. *)
        let id =
          match Hashtbl.find_opt ctx.host_ids f with
          | Some id -> id
          | None ->
              let id = Hashtbl.length ctx.host_ids in
              Hashtbl.add ctx.host_ids f id;
              id
        in
        store_target ctx dst_wanted (fun dst -> emit ctx (P (CallC (id, arg_regs, dst))))
  in
  match (group, sub) with
  (* ---- flow ------------------------------------------------------------- *)
  | "flow", "jump" -> emit ctx (PJump (label_of (op 0)))
  | "flow", "if.else" ->
      let c = lower_operand ctx (op 0) in
      emit ctx (PBr (c, label_of (op 1), label_of (op 2)))
  | "flow", "call" ->
      let f = fname_of (op 0) in
      call_target f (if List.length ops > 1 then Some (op 1) else None) i.Instr.target
  | "flow", "return.void" -> emit ctx (P (Ret (-1)))
  | "flow", "return.result" ->
      let r = lower_operand ctx (op 0) in
      emit ctx (P (Ret r))
  | "flow", "yield" -> emit ctx (P Yield)
  | "flow", "throw" ->
      let r = lower_operand ctx (op 0) in
      emit ctx (P (Throw r))
  | "flow", "try.push" ->
      let exc_reg =
        match op 1 with
        | Instr.Local n -> reg_of_var ctx n
        | o -> fail "try.push: expected local, got %s" (Instr.operand_to_string o)
      in
      emit ctx (PTryPush (label_of (op 0), exc_reg))
  | "flow", "try.pop" -> emit ctx (P TryPop)
  | "flow", "select" -> prim P_select
  | "flow", "equal" -> prim P_equal
  | "flow", "assign" ->
      let src = lower_operand ctx (op 0) in
      store_target ctx i.Instr.target (fun dst ->
          if dst >= 0 then emit ctx (P (Mov (dst, src))))
  | "flow", "nop" -> emit ctx (P Nop)
  | "flow", "switch" ->
      let v = lower_operand ctx (op 0) in
      let default = label_of (op 1) in
      let cases =
        List.filteri (fun idx _ -> idx >= 2) ops
        |> List.map (function
             | Instr.Tuple_op [ Instr.Const c; Instr.Label l ] ->
                 (value_of_constant ctx.types c, l)
             | o -> fail "switch: bad case %s" (Instr.operand_to_string o))
      in
      emit ctx (PSwitch (v, default, Array.of_list cases))
  | "flow", "new" -> (
      match op 0 with
      | Instr.Type_op ty ->
          let spec =
            match Htype.deref ty with
            | Htype.Struct n -> New_struct (n, struct_field_names ctx n)
            | Htype.List _ -> New_list
            | Htype.Vector _ -> New_vector
            | Htype.Set _ -> New_set
            | Htype.Map _ -> New_map
            | Htype.Bytes -> New_bytes
            | Htype.Timer_mgr -> New_timer_mgr
            | Htype.Channel _ ->
                let cap =
                  match ops with
                  | [ _; Instr.Const (Constant.Int (c, _)) ] -> Some (Int64.to_int c)
                  | _ -> None
                in
                New_channel cap
            | Htype.Classifier (rule, _) -> New_classifier (classifier_nfields ctx rule)
            | Htype.Match_state -> New_match_state
            | t -> fail "new: unsupported type %s" (Htype.to_string t)
          in
          let extra =
            match spec with
            | New_match_state -> List.filteri (fun idx _ -> idx >= 1) ops
            | _ -> []
          in
          let arg_regs = Array.of_list (List.map (lower_operand ctx) extra) in
          store_target ctx i.Instr.target (fun dst ->
              emit ctx (P (Prim (P_new spec, arg_regs, dst))))
      | o -> fail "new: expected type operand, got %s" (Instr.operand_to_string o))
  (* ---- bool ------------------------------------------------------------- *)
  | "bool", "and" -> prim P_bool_and
  | "bool", "or" -> prim P_bool_or
  | "bool", "not" -> prim P_bool_not
  (* ---- int -------------------------------------------------------------- *)
  | "int", ("add" | "sub" | "mul" | "div" | "mod" | "shl" | "shr" | "and" | "or" | "xor" | "min" | "max") ->
      prim (P_int_arith (int_arith_of sub, int_width ctx (op 0)))
  | "int", ("eq" | "lt" | "gt" | "leq" | "geq") -> prim (P_int_cmp (cmp_of sub))
  | "int", "neg" -> prim (P_int_neg (int_width ctx (op 0)))
  | "int", "abs" -> prim P_int_abs
  | "int", "to_double" -> prim P_int_to_double
  | "int", "to_time" -> prim P_int_to_time
  | "int", "to_interval" -> prim P_int_to_interval
  | "int", "to_string" -> prim P_int_to_string
  (* ---- double ------------------------------------------------------------ *)
  | "double", ("add" | "sub" | "mul" | "div") -> prim (P_double_arith (int_arith_of sub))
  | "double", ("eq" | "lt" | "gt" | "leq" | "geq") -> prim (P_double_cmp (cmp_of sub))
  | "double", "neg" -> prim P_double_neg
  | "double", "abs" -> prim P_double_abs
  | "double", "to_int" -> prim P_double_to_int
  (* ---- string ------------------------------------------------------------- *)
  | "string", _ ->
      let sop =
        match sub with
        | "concat" -> S_concat | "length" -> S_length | "eq" -> S_eq
        | "lt" -> S_lt | "find" -> S_find | "substr" -> S_substr
        | "to_bytes" -> S_to_bytes | "to_upper" -> S_upper | "to_lower" -> S_lower
        | "starts_with" -> S_starts_with | "contains" -> S_contains
        | "split1" -> S_split1 | "format" -> S_format
        | _ -> fail "unknown string op %s" sub
      in
      prim (P_string sop)
  (* ---- bytes --------------------------------------------------------------- *)
  | "bytes", _ ->
      let bop =
        match sub with
        | "new" -> B_new | "length" -> B_length | "append" -> B_append
        | "freeze" -> B_freeze | "is_frozen" -> B_is_frozen | "trim" -> B_trim
        | "sub" -> B_sub | "find" -> B_find | "match_prefix" -> B_match_prefix
        | "can_read" -> B_can_read | "read" -> B_read | "to_string" -> B_to_string
        | "to_int" -> B_to_int | "eq" -> B_eq | "starts_with" -> B_starts_with
        | "contains" -> B_contains | "offset" -> B_offset
        | "unpack_uint" -> B_unpack_uint | "unpack_sint" -> B_unpack_sint
        | "to_upper" -> B_upper | "to_lower" -> B_lower
        | _ -> fail "unknown bytes op %s" sub
      in
      prim (P_bytes bop)
  (* ---- iterators ------------------------------------------------------------- *)
  | "iter", _ ->
      let iop =
        match sub with
        | "begin" -> I_begin | "end" -> I_end | "incr" -> I_incr
        | "advance" -> I_advance | "deref" -> I_deref | "eq" -> I_eq
        | "distance" -> I_distance | "at_end" -> I_at_end | "is_eod" -> I_is_eod
        | "is_frozen" -> I_is_frozen
        | _ -> fail "unknown iter op %s" sub
      in
      prim (P_iter iop)
  (* ---- domain types ------------------------------------------------------------ *)
  | "addr", "family" -> prim (P_addr AD_family)
  | "addr", "eq" -> prim (P_addr AD_eq)
  | "addr", "mask" -> prim (P_addr AD_mask)
  | "addr", "to_string" -> prim (P_addr AD_to_string)
  | "port", "protocol" -> prim (P_port PO_protocol)
  | "port", "number" -> prim (P_port PO_number)
  | "port", "eq" -> prim (P_port PO_eq)
  | "net", "contains" -> prim (P_net NE_contains)
  | "net", "prefix" -> prim (P_net NE_prefix)
  | "net", "length" -> prim (P_net NE_length)
  | "net", "eq" -> prim (P_net NE_eq)
  | "time", "add" -> prim (P_time TI_add)
  | "time", "sub" -> prim (P_time TI_sub)
  | "time", ("eq" | "lt" | "gt" | "leq" | "geq") -> prim (P_time (TI_cmp (cmp_of sub)))
  | "time", "wall" -> prim (P_time TI_wall)
  | "time", "to_double" -> prim (P_time TI_to_double)
  | "time", "nsecs" -> prim (P_time TI_nsecs)
  | "interval", "add" -> prim (P_interval IV_add)
  | "interval", "sub" -> prim (P_interval IV_sub)
  | "interval", "mul" -> prim (P_interval IV_mul)
  | "interval", "eq" -> prim (P_interval IV_eq)
  | "interval", "lt" -> prim (P_interval IV_lt)
  | "interval", "to_double" -> prim (P_interval IV_to_double)
  | "interval", "nsecs" -> prim (P_interval IV_nsecs)
  (* ---- tuples --------------------------------------------------------------------- *)
  | "tuple", "get" -> (
      match op 1 with
      | Instr.Const (Constant.Int (idx, _)) ->
          prim ~args:[ op 0 ] (P_tuple_get (Int64.to_int idx))
      | o -> fail "tuple.get: constant index required, got %s" (Instr.operand_to_string o))
  | "tuple", "length" -> prim P_tuple_length
  | "tuple", "eq" -> prim P_tuple_eq
  (* ---- structs --------------------------------------------------------------------- *)
  | "struct", "get" -> prim ~args:[ op 0 ] (P_struct (ST_get (member_of (op 1))))
  | "struct", "get_default" ->
      prim ~args:[ op 0; op 2 ] (P_struct (ST_get_default (member_of (op 1))))
  | "struct", "set" -> prim ~args:[ op 0; op 2 ] (P_struct (ST_set (member_of (op 1))))
  | "struct", "unset" -> prim ~args:[ op 0 ] (P_struct (ST_unset (member_of (op 1))))
  | "struct", "is_set" -> prim ~args:[ op 0 ] (P_struct (ST_is_set (member_of (op 1))))
  (* ---- enums ------------------------------------------------------------------------- *)
  | "enum", "from_int" -> (
      match op 0 with
      | Instr.Type_op (Htype.Enum n) -> prim ~args:[ op 1 ] (P_enum_from_int n)
      | o -> fail "enum.from_int: expected enum type, got %s" (Instr.operand_to_string o))
  | "enum", "value" -> prim P_enum_value
  | "enum", "eq" -> prim P_enum_eq
  (* ---- bitsets ------------------------------------------------------------------------ *)
  | "bitset", "set" -> prim ~args:[ op 0 ] (P_bitset_set (bitset_mask ctx (op 1)))
  | "bitset", "clear" -> prim ~args:[ op 0 ] (P_bitset_clear (bitset_mask ctx (op 1)))
  | "bitset", "has" -> prim ~args:[ op 0 ] (P_bitset_has (bitset_mask ctx (op 1)))
  | "bitset", "eq" -> prim P_bitset_eq
  (* ---- containers ----------------------------------------------------------------------- *)
  | "list", _ ->
      let lop =
        match sub with
        | "append" -> L_append | "push_front" -> L_push_front
        | "pop_front" -> L_pop_front | "front" -> L_front | "back" -> L_back
        | "size" -> L_size | "clear" -> L_clear
        | "timeout" -> fail "list.timeout: not supported on lists"
        | _ -> fail "unknown list op %s" sub
      in
      prim (P_list lop)
  | "vector", _ ->
      let vop =
        match sub with
        | "push_back" -> V_push_back | "get" -> V_get | "set" -> V_set
        | "size" -> V_size | "reserve" -> V_reserve | "clear" -> V_clear
        | "pop_back" -> V_pop_back
        | _ -> fail "unknown vector op %s" sub
      in
      prim (P_vector vop)
  | "set", _ ->
      let sop =
        match sub with
        | "insert" -> SE_insert | "exists" -> SE_exists | "remove" -> SE_remove
        | "size" -> SE_size | "clear" -> SE_clear | "timeout" -> SE_timeout
        | _ -> fail "unknown set op %s" sub
      in
      prim (P_set sop)
  | "map", _ ->
      let mop =
        match sub with
        | "insert" -> M_insert | "get" -> M_get | "get_default" -> M_get_default
        | "exists" -> M_exists | "remove" -> M_remove | "size" -> M_size
        | "clear" -> M_clear | "default" -> M_default | "timeout" -> M_timeout
        | _ -> fail "unknown map op %s" sub
      in
      prim (P_map mop)
  | "channel", _ ->
      let cop =
        match sub with
        | "write" -> CH_write | "read" -> CH_read | "try_read" -> CH_try_read
        | "size" -> CH_size
        | _ -> fail "unknown channel op %s" sub
      in
      prim (P_channel cop)
  | "classifier", _ ->
      let cop =
        match sub with
        | "add" -> CL_add | "compile" -> CL_compile | "get" -> CL_get
        | "matches" -> CL_matches
        | _ -> fail "unknown classifier op %s" sub
      in
      prim (P_classifier cop)
  | "regexp", _ ->
      let rop =
        match sub with
        | "compile" -> RE_compile | "find" -> RE_find
        | "match_token" -> RE_match_token | "span" -> RE_span
        | "groups" -> RE_groups
        | _ -> fail "unknown regexp op %s" sub
      in
      prim (P_regexp rop)
  (* ---- overlays ---------------------------------------------------------------------------- *)
  | "overlay", "get" ->
      let tname =
        match op 0 with
        | Instr.Type_op (Htype.Overlay n) | Instr.Member n -> n
        | o -> fail "overlay.get: expected overlay type, got %s" (Instr.operand_to_string o)
      in
      prim ~args:[ op 2 ] (P_overlay_get (overlay_spec ctx tname (member_of (op 1))))
  | "overlay", "size" ->
      let tname =
        match op 0 with
        | Instr.Type_op (Htype.Overlay n) | Instr.Member n -> n
        | o -> fail "overlay.size: expected overlay type, got %s" (Instr.operand_to_string o)
      in
      store_target ctx i.Instr.target (fun dst ->
          emit ctx (P (Const (dst, Value.Int (Int64.of_int (overlay_size ctx tname))))))
  (* ---- timers -------------------------------------------------------------------------------- *)
  | "timer", "new" -> prim P_timer_new
  | "timer", "cancel" -> prim P_timer_cancel
  | "timer_mgr", "new" -> prim (P_new New_timer_mgr)
  | "timer_mgr", "schedule" -> prim P_timer_mgr_schedule
  | "timer_mgr", "advance" -> prim P_timer_mgr_advance
  | "timer_mgr", "advance_global" -> prim P_timer_mgr_advance_global
  | "timer_mgr", "current" -> prim P_timer_mgr_current
  | "timer_mgr", "expire_all" -> prim P_timer_mgr_expire_all
  (* ---- threads --------------------------------------------------------------------------------- *)
  | "thread", "schedule" ->
      let f = fname_of (op 0) in
      let args =
        match op 1 with
        | Instr.Tuple_op l -> l
        | o -> [ o ]
      in
      let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
      let tid = lower_operand ctx (op 2) in
      let idx =
        match Hashtbl.find_opt ctx.fname_index f with
        | Some idx -> idx
        | None -> fail "thread.schedule: unknown function %s" f
      in
      emit ctx (P (Schedule (idx, arg_regs, tid)))
  | "thread", "id" -> prim P_thread_id
  (* ---- hooks ------------------------------------------------------------------------------------- *)
  | "hook", "run" ->
      let name = fname_of (op 0) in
      let args = match op 1 with Instr.Tuple_op l -> l | o -> [ o ] in
      let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
      emit ctx (P (HookRun (name, arg_regs)))
  | "hook", "stop" ->
      (* Modeled as a distinguished exception understood by the hook runner. *)
      let r = fresh ctx in
      emit ctx (P (Const (r, Value.Exception { ename = "Hilti::HookStop"; earg = Value.Null })));
      emit ctx (P (Throw r))
  (* ---- callables ---------------------------------------------------------------------------------- *)
  | "callable", "bind" ->
      let f = fname_of (op 0) in
      let args = match op 1 with Instr.Tuple_op l -> l | o -> [ o ] in
      let arg_regs = Array.of_list (List.map (lower_operand ctx) args) in
      let idx =
        match Hashtbl.find_opt ctx.fname_index f with
        | Some idx -> idx
        | None -> fail "callable.bind: unknown function %s" f
      in
      store_target ctx i.Instr.target (fun dst -> emit ctx (P (Bind (idx, arg_regs, dst))))
  | "callable", "call" -> prim P_callable_call
  (* ---- exceptions ----------------------------------------------------------------------------------- *)
  | "exception", "new" -> prim P_exc_new
  | "exception", "data" -> prim P_exc_data
  | "exception", "name" -> prim P_exc_name
  (* ---- file / iosrc / profiler / debug ------------------------------------------------------------------ *)
  | "file", "open" -> prim (P_file F_open)
  | "file", "write" -> prim (P_file F_write)
  | "file", "close" -> prim (P_file F_close)
  | "iosrc", "read" -> prim P_iosrc_read
  | "iosrc", "close" -> prim P_iosrc_close
  | "profiler", "start" -> prim (P_profiler PR_start)
  | "profiler", "stop" -> prim (P_profiler PR_stop)
  | "profiler", "snapshot" -> prim (P_profiler PR_snapshot)
  | "debug", "msg" -> prim (P_debug D_msg)
  | "debug", "assert" -> prim (P_debug D_assert)
  | "debug", "internal_error" -> prim (P_debug D_internal_error)
  | _ -> fail "cannot lower instruction %s" m

(* Resolve symbolic labels to instruction offsets. *)
let resolve_labels (pres : pre list) (block_offsets : (string, int) Hashtbl.t) =
  let resolve l =
    match Hashtbl.find_opt block_offsets l with
    | Some pc -> pc
    | None -> fail "unresolved label %s" l
  in
  List.map
    (fun p ->
      match p with
      | P i -> i
      | PJump l -> Jump (resolve l)
      | PBr (c, t, e) -> Br (c, resolve t, resolve e)
      | PSwitch (v, d, cases) ->
          Switch (v, resolve d, Array.map (fun (c, l) -> (c, resolve l)) cases)
      | PTryPush (l, r) -> TryPush (resolve l, r))
    pres

let lower_func types global_index fname_index c_funcs host_ids internal_name
    (f : Module_ir.func) : Bytecode.func =
  let ctx =
    {
      types;
      var_types = Hashtbl.create 16;
      regs = Hashtbl.create 16;
      nregs = 0;
      out = [];
      nout = 0;
      global_index;
      fname_index;
      c_funcs;
      host_ids;
      const_regs = Hashtbl.create 16;
      const_inits = [];
    }
  in
  List.iter
    (fun (n, t) ->
      Hashtbl.replace ctx.var_types n t;
      Hashtbl.replace ctx.regs n (fresh ctx))
    (f.Module_ir.params @ f.Module_ir.locals);
  (* Two-phase emission: lower every block recording start offsets, then
     patch label references. *)
  let block_offsets = Hashtbl.create 8 in
  List.iter
    (fun (b : Module_ir.block) ->
      Hashtbl.replace block_offsets b.Module_ir.label ctx.nout;
      List.iter (lower_instr ctx) b.Module_ir.instrs)
    f.Module_ir.blocks;
  (* Implicit return for void functions. *)
  (match ctx.out with
  | P (Ret _) :: _ -> ()
  | _ -> emit ctx (P (Ret (-1))));
  let code = Array.of_list (resolve_labels (List.rev ctx.out) block_offsets) in
  let reg_defaults = Array.make (max ctx.nregs 1) Value.Null in
  let entry_init = Array.make (max ctx.nregs 1) false in
  List.iter
    (fun (n, t) ->
      match Hashtbl.find_opt ctx.regs n with
      | Some r ->
          reg_defaults.(r) <- default_value t;
          entry_init.(r) <- true
      | None -> ())
    (f.Module_ir.params @ f.Module_ir.locals);
  List.iter
    (fun (r, v) ->
      reg_defaults.(r) <- v;
      entry_init.(r) <- true)
    ctx.const_inits;
  {
    name = internal_name;
    nparams = List.length f.Module_ir.params;
    nregs = ctx.nregs;
    code;
    returns_value = f.Module_ir.result <> Htype.Void;
    exported = f.Module_ir.exported;
    reg_defaults;
    entry_init;
    typing = [||];
    spec = None;
  }

(** Lower a (linked) module into an executable program. *)
let lower_module (m : Module_ir.t) : Bytecode.program =
  let types = Hashtbl.create 32 in
  List.iter (fun (n, d) -> Hashtbl.replace types n d) builtin_enums;
  List.iter (fun (n, d) -> Hashtbl.replace types n d) m.Module_ir.types;
  (* Global (thread-local) layout: the linker's merged array (§5). *)
  let global_index = Hashtbl.create 16 in
  let globals = Array.of_list (List.map fst m.Module_ir.globals) in
  let global_defaults =
    Array.of_list (List.map (fun (_, t) -> default_value t) m.Module_ir.globals)
  in
  Array.iteri (fun slot n -> Hashtbl.replace global_index n slot) globals;
  (* Function index space: ordinary functions first, then hook bodies. *)
  let hilti_funcs =
    List.filter (fun f -> f.Module_ir.cc <> Module_ir.Cc_c) m.Module_ir.funcs
  in
  let c_funcs = Hashtbl.create 8 in
  List.iter
    (fun (f : Module_ir.func) ->
      if f.Module_ir.cc = Module_ir.Cc_c then Hashtbl.replace c_funcs f.Module_ir.fname ())
    m.Module_ir.funcs;
  let fname_index = Hashtbl.create 32 in
  List.iteri
    (fun i (f : Module_ir.func) -> Hashtbl.replace fname_index f.Module_ir.fname i)
    hilti_funcs;
  let nfuncs = List.length hilti_funcs in
  let host_ids = Hashtbl.create 8 in
  (* Hook bodies get stable internal names and indices after functions,
     ordered by descending priority (the cross-unit hook merge). *)
  let hook_bodies =
    List.stable_sort
      (fun a b -> Int.compare b.Module_ir.hook_priority a.Module_ir.hook_priority)
      m.Module_ir.hooks
  in
  let hooks_table = Hashtbl.create 8 in
  List.iteri
    (fun i (h : Module_ir.func) ->
      let idx = nfuncs + i in
      let existing = Option.value ~default:[] (Hashtbl.find_opt hooks_table h.Module_ir.fname) in
      Hashtbl.replace hooks_table h.Module_ir.fname (existing @ [ idx ]))
    hook_bodies;
  let lowered_funcs =
    List.map
      (fun (f : Module_ir.func) ->
        lower_func types global_index fname_index c_funcs host_ids f.Module_ir.fname f)
      hilti_funcs
  in
  let lowered_hooks =
    List.mapi
      (fun i (h : Module_ir.func) ->
        lower_func types global_index fname_index c_funcs host_ids
          (Printf.sprintf "%s#%d" h.Module_ir.fname i)
          h)
      hook_bodies
  in
  let funcs = Array.of_list (lowered_funcs @ lowered_hooks) in
  let func_index = Hashtbl.create 32 in
  Array.iteri (fun i (f : Bytecode.func) -> Hashtbl.replace func_index f.name i) funcs;
  let hosts = Array.make (Hashtbl.length host_ids) "" in
  Hashtbl.iter (fun n id -> hosts.(id) <- n) host_ids;
  { funcs; func_index; globals; global_defaults; global_index; hooks = hooks_table;
    hosts; types; verified = false; specialized = false; reuse = [||]; reuse_susp = [||] }
